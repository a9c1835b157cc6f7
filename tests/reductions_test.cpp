// Tests of every reduction arrow in the paper's Figure 5 relation diagram:
//   Theorem 1  — Σ → HΣ (Fig. 1 with membership, Fig. 2 without)
//   Theorem 2  — HΣ → Σ (Fig. 4, using a class-S ranker)
//   Theorem 3  — AΣ → HΣ (no communication)
//   Lemma 2    — AP → ◇HP̄ (no communication)
//   Lemma 3    — AP → HΣ (no communication)
//   Observation 1 — ◇HP̄ → HΩ (no communication)
// Each reduction runs against an oracle source (and, where meaningful, a
// real implementation source), and the output trace is validated against
// the target class's checker.
#include <gtest/gtest.h>

#include <memory>

#include "consensus/harness.h"
#include "fd/impl/alive_ranker.h"
#include "fd/impl/ap_sync.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/oracles.h"
#include "fd/reduce/ap_to_hsigma.h"
#include "fd/reduce/ap_to_asigma.h"
#include "fd/reduce/ap_to_ohp.h"
#include "fd/reduce/asigma_to_hsigma.h"
#include "fd/reduce/hsigma_to_sigma.h"
#include "fd/reduce/ohp_to_homega.h"
#include "fd/reduce/sigma_to_hsigma.h"
#include "sim/stacked_process.h"
#include "sim/system.h"
#include "spec/fd_checkers.h"

namespace hds {
namespace {

// --------------------------------------------------- Theorem 1 (Figs. 1-2)

struct Theorem1Run {
  std::unique_ptr<System> sys;
  std::unique_ptr<OracleSigma> sigma;
  std::vector<const Trajectory<HSigmaSnapshot>*> traces;
  GroundTruth gt;
};

Theorem1Run run_theorem1(bool with_membership, OracleSigma::Mode mode, std::size_t n,
                         std::size_t crash_k, std::uint64_t seed) {
  Theorem1Run run;
  SystemConfig cfg;
  for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);  // unique ids
  cfg.timing = std::make_unique<AsyncTiming>(1, 5);
  cfg.crashes.resize(n);
  for (std::size_t j = 0; j < crash_k; ++j) cfg.crashes[n - 1 - j] = CrashPlan{20};
  cfg.seed = seed;
  run.sys = std::make_unique<System>(std::move(cfg));
  auto& sys = *run.sys;
  run.sigma = std::make_unique<OracleSigma>(GroundTruth::from(sys), [&sys] { return sys.now(); },
                                            100, mode);
  std::set<Id> membership;
  for (ProcIndex i = 0; i < n; ++i) membership.insert(sys.id_of(i));
  for (ProcIndex i = 0; i < n; ++i) {
    if (with_membership) {
      auto red = std::make_unique<SigmaToHSigmaLocal>(run.sigma->handle(i), sys.id_of(i),
                                                      membership);
      run.traces.push_back(&red->trace());
      sys.set_process(i, std::move(red));
    } else {
      auto red = std::make_unique<SigmaToHSigmaBcast>(run.sigma->handle(i));
      run.traces.push_back(&red->trace());
      sys.set_process(i, std::move(red));
    }
  }
  sys.start();
  sys.run_until(400);
  run.gt = GroundTruth::from(sys);
  return run;
}

TEST(Theorem1, Fig1WithMembershipYieldsHSigma) {
  auto run = run_theorem1(true, OracleSigma::Mode::kCoarse, 4, 1, 1);
  auto res = check_hsigma(run.gt, run.traces);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(Theorem1, Fig2WithoutMembershipYieldsHSigma) {
  auto run = run_theorem1(false, OracleSigma::Mode::kCoarse, 4, 1, 2);
  auto res = check_hsigma(run.gt, run.traces);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(Theorem1, SurvivesChurningPivotSigma) {
  for (bool with_membership : {true, false}) {
    auto run = run_theorem1(with_membership, OracleSigma::Mode::kPivot, 5, 2, 3);
    auto res = check_hsigma(run.gt, run.traces);
    EXPECT_TRUE(res.ok) << "membership=" << with_membership << ": " << res.detail;
  }
}

TEST(Theorem1, LabelUniverseIsAllSubsetsContainingSelf) {
  auto labels = labels_of_membership({1, 2, 3}, 2);
  EXPECT_EQ(labels.size(), 4u);  // {2}, {1,2}, {2,3}, {1,2,3}
  EXPECT_TRUE(labels.contains(Label::of_set({2})));
  EXPECT_TRUE(labels.contains(Label::of_set({1, 2, 3})));
  EXPECT_FALSE(labels.contains(Label::of_set({1, 3})));
  // Unknown self: no labels yet (Fig. 2 before receiving own IDENT).
  EXPECT_TRUE(labels_of_membership({1, 3}, 2).empty());
  // Size guard: the universe is exponential by construction.
  std::set<Id> big;
  for (Id i = 1; i <= kMaxMembershipForLabels + 1; ++i) big.insert(i);
  EXPECT_THROW(labels_of_membership(big, 1), std::invalid_argument);
}

// --------------------------------------------------- Theorem 2 (Fig. 4)

TEST(Theorem2, Fig4OverOracleHSigmaYieldsSigma) {
  const std::size_t n = 5;
  SystemConfig cfg;
  for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
  cfg.timing = std::make_unique<AsyncTiming>(1, 5);
  cfg.crashes = {std::nullopt, std::nullopt, std::nullopt, CrashPlan{30}, CrashPlan{40}};
  cfg.seed = 7;
  System sys(std::move(cfg));
  OracleHSigma hsigma(GroundTruth::from(sys), [&sys] { return sys.now(); }, 120);
  std::vector<const Trajectory<Multiset<Id>>*> traces;
  for (ProcIndex i = 0; i < n; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    auto* ranker = stack->add(std::make_unique<AliveRanker>(4));
    auto* red = stack->add(std::make_unique<HSigmaToSigma>(hsigma.handle(i), *ranker));
    traces.push_back(&red->trace());
    sys.set_process(i, std::move(stack));
  }
  sys.start();
  sys.run_until(800);
  auto res = check_sigma(GroundTruth::from(sys), traces, 800, 80);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(Theorem2, Fig4OverRealFig7DetectorYieldsSigma) {
  // Corollary 1 round trip with a real source: HΣ built by the Fig. 7
  // adapter feeds the Fig. 4 transformation, all in one stack.
  const std::size_t n = 4;
  SystemConfig cfg;
  for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
  cfg.timing = std::make_unique<BoundedTiming>(2);
  cfg.crashes = crashes_none(n);
  cfg.crashes[n - 1] = CrashPlan{25};
  cfg.seed = 9;
  System sys(std::move(cfg));
  std::vector<const Trajectory<Multiset<Id>>*> traces;
  for (ProcIndex i = 0; i < n; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    auto* src = stack->add(std::make_unique<HSigmaComponent>(3));
    auto* ranker = stack->add(std::make_unique<AliveRanker>(4));
    auto* red = stack->add(std::make_unique<HSigmaToSigma>(*src, *ranker));
    traces.push_back(&red->trace());
    sys.set_process(i, std::move(stack));
  }
  sys.start();
  sys.run_until(800);
  auto res = check_sigma(GroundTruth::from(sys), traces, 800, 80);
  EXPECT_TRUE(res.ok) << res.detail;
}

// --------------------------------------------------- Theorem 3 (AΣ → HΣ)

TEST(Theorem3, ASigmaToHSigmaOverOracle) {
  GroundTruth gt;
  gt.ids = {kBottomId, kBottomId, kBottomId, kBottomId};
  gt.correct = {true, true, false, true};
  SimTime now = 0;
  OracleASigma src(gt, [&now] { return now; }, 60);
  std::vector<ASigmaToHSigma> reds;
  for (ProcIndex p = 0; p < 4; ++p) reds.emplace_back(src.handle(p));
  std::vector<Trajectory<HSigmaSnapshot>> trajs(4);
  for (now = 0; now <= 150; ++now) {
    for (ProcIndex p = 0; p < 4; ++p) trajs[p].record(now, reds[p].snapshot());
  }
  std::vector<const Trajectory<HSigmaSnapshot>*> ptrs;
  for (auto& t : trajs) ptrs.push_back(&t);
  auto res = check_hsigma(gt, ptrs);
  EXPECT_TRUE(res.ok) << res.detail;
  // The pair (x, bottom^y) shape: counts become multisets of bottoms.
  const auto fin = trajs[0].final();
  ASSERT_FALSE(fin.quora.empty());
  for (const auto& [x, m] : fin.quora) {
    (void)x;
    EXPECT_EQ(m.multiplicity(kBottomId), m.size());
  }
}

// --------------------------------------------------- Lemmas 2-3 (AP → …)

TEST(Lemma2, ApToOhpOverOracle) {
  GroundTruth gt;
  gt.ids = {kBottomId, kBottomId, kBottomId};
  gt.correct = {true, true, false};
  SimTime now = 0;
  OracleAP src(gt, [&now] { return now; }, 40);
  std::vector<ApToOhp> reds;
  for (ProcIndex p = 0; p < 3; ++p) reds.emplace_back(src.handle(p));
  std::vector<Trajectory<Multiset<Id>>> trajs(3);
  for (now = 0; now <= 100; ++now) {
    for (ProcIndex p = 0; p < 3; ++p) trajs[p].record(now, reds[p].h_trusted());
  }
  std::vector<const Trajectory<Multiset<Id>>*> ptrs;
  for (auto& t : trajs) ptrs.push_back(&t);
  auto res = check_ohp(gt, ptrs, 100, 20);
  EXPECT_TRUE(res.ok) << res.detail;
  EXPECT_EQ(trajs[0].final(), Multiset<Id>::with_copies(kBottomId, 2));
}

TEST(Lemma2, BootstrapInfinityMapsToEmpty) {
  APComponent ap(1);  // anap = infinity before the first step
  ApToOhp red(ap);
  EXPECT_TRUE(red.h_trusted().empty());
}

// Anonymous lock-step AP: APComponent(1) over BoundedTiming(1), so step s is
// folded at tick s + 1 and a crash at tick s is a crash in step s.
std::unique_ptr<System> lock_step_ap(std::vector<std::optional<CrashPlan>> crashes,
                                     std::uint64_t seed, std::vector<APComponent*>& aps) {
  SystemConfig cfg;
  cfg.ids = ids_anonymous(crashes.size());
  cfg.timing = std::make_unique<BoundedTiming>(1);
  cfg.crashes = std::move(crashes);
  cfg.seed = seed;
  auto sys = std::make_unique<System>(std::move(cfg));
  for (ProcIndex i = 0; i < sys->n(); ++i) {
    auto ap = std::make_unique<APComponent>(1);
    aps.push_back(ap.get());
    sys->set_process(i, std::move(ap));
  }
  sys->start();
  return sys;
}

// Runs 12 lock steps, sampling every alive process's adapter after each fold,
// and checks HΣ on the samples.
CheckResult check_hsigma_per_step(System& sys, const std::vector<const HSigmaHandle*>& reds) {
  std::vector<Trajectory<HSigmaSnapshot>> trajs(sys.n());
  for (SimTime t = 1; t <= 12; ++t) {
    sys.run_until(t);
    for (ProcIndex i = 0; i < sys.n(); ++i) {
      if (sys.is_alive_at(i, t)) trajs[i].record(t, reds[i]->snapshot());
    }
  }
  std::vector<const Trajectory<HSigmaSnapshot>*> ptrs;
  for (auto& t : trajs) ptrs.push_back(&t);
  return check_hsigma(GroundTruth::from(sys), ptrs);
}

TEST(Lemma3, ApToHSigmaOverRealApImplementation) {
  // Full anonymous synchronous pipeline: AP implementation in lock step,
  // Lemma 3 adapter sampled once per step, HΣ checker on the trace.
  const std::size_t n = 5;
  std::vector<std::optional<CrashPlan>> crashes(n);
  crashes[3] = CrashPlan{2, false};
  crashes[4] = CrashPlan{4, true};
  std::vector<APComponent*> aps;
  auto sys = lock_step_ap(std::move(crashes), 3, aps);
  std::vector<std::unique_ptr<ApToHSigma>> reds;
  std::vector<const HSigmaHandle*> handles;
  for (ProcIndex i = 0; i < n; ++i) {
    reds.push_back(std::make_unique<ApToHSigma>(*aps[i]));
    handles.push_back(reds.back().get());
  }
  auto res = check_hsigma_per_step(*sys, handles);
  EXPECT_TRUE(res.ok) << res.detail;
}

// ------------------------------------- AP → AΣ (Fig. 5 solid arrow, [6])

TEST(ApToASigmaArrow, ComposedWithTheorem3SatisfiesHSigma) {
  // Validate AP → AΣ by composing it with Theorem 3 (AΣ → HΣ) and running
  // the full HΣ property checker over the composite — the checker stack
  // validating a reduction stack.
  const std::size_t n = 5;
  std::vector<APComponent*> aps;
  auto sys = lock_step_ap(crashes_last_k(n, 2, 2, 2, false), 6, aps);
  std::vector<std::unique_ptr<ApToASigma>> to_asigma;
  std::vector<std::unique_ptr<ASigmaToHSigma>> to_hsigma;
  std::vector<const HSigmaHandle*> handles;
  for (ProcIndex i = 0; i < n; ++i) {
    to_asigma.push_back(std::make_unique<ApToASigma>(*aps[i]));
    to_hsigma.push_back(std::make_unique<ASigmaToHSigma>(*to_asigma[i]));
    handles.push_back(to_hsigma.back().get());
  }
  auto res = check_hsigma_per_step(*sys, handles);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(ApToASigmaArrow, PairsAccumulateMonotonically) {
  class FixedAp final : public APHandle {
   public:
    [[nodiscard]] std::size_t anap() const override { return value; }
    std::size_t value = std::numeric_limits<std::size_t>::max();
  };
  FixedAp ap;
  ApToASigma red(ap);
  EXPECT_TRUE(red.a_sigma().empty());  // bootstrap infinity: nothing yet
  ap.value = 5;
  EXPECT_EQ(red.a_sigma().size(), 1u);
  ap.value = 3;
  auto pairs = red.a_sigma();
  ASSERT_EQ(pairs.size(), 2u);  // the old pair survives (AΣ monotonicity)
  EXPECT_EQ(pairs[0], (ASigmaPair{3, 3}));
  EXPECT_EQ(pairs[1], (ASigmaPair{5, 5}));
}

// ------------------------------------------- Observation 1 (◇HP̄ → HΩ)

TEST(Observation1, OhpToHOmegaOverOracle) {
  GroundTruth gt;
  gt.ids = {4, 2, 2, 9};
  gt.correct = {true, true, true, false};
  SimTime now = 0;
  OracleOHP src(gt, [&now] { return now; }, 30);
  std::vector<OhpToHOmega> reds;
  for (ProcIndex p = 0; p < 4; ++p) reds.emplace_back(src.handle(p), gt.ids[p]);
  std::vector<Trajectory<HOmegaOut>> trajs(4);
  for (now = 0; now <= 100; ++now) {
    for (ProcIndex p = 0; p < 4; ++p) trajs[p].record(now, reds[p].h_omega());
  }
  std::vector<const Trajectory<HOmegaOut>*> ptrs;
  for (auto& t : trajs) ptrs.push_back(&t);
  auto res = check_homega(gt, ptrs, 100, 20);
  EXPECT_TRUE(res.ok) << res.detail;
  EXPECT_EQ(trajs[0].final(), (HOmegaOut{2, 2}));
}

TEST(Observation1, EmptyTrustedFallsBackToSelf) {
  class EmptyOhp final : public OHPHandle {
   public:
    [[nodiscard]] Multiset<Id> h_trusted() const override { return {}; }
  };
  EmptyOhp src;
  OhpToHOmega red(src, 77);
  EXPECT_EQ(red.h_omega(), (HOmegaOut{77, 1}));
}

}  // namespace
}  // namespace hds
