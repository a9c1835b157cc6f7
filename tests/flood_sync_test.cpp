// Tests for the related-work baselines: FloodMin (t+1 rounds, identifiers
// unused) and the AP-style early-stopping variant (t unknown, counting).
#include "consensus/flood_sync.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "consensus/harness.h"
#include "fd/ground_truth.h"
#include "spec/consensus_checkers.h"
#include "support/param_grid.h"

namespace hds {
namespace {

template <typename P, typename Make>
struct SyncConsensusRun {
  std::unique_ptr<System> sys;
  std::vector<P*> procs;
  std::vector<Value> proposals;

  std::vector<DecisionRecord> decisions() const {
    std::vector<DecisionRecord> out;
    for (auto* p : procs) out.push_back(p->decision());
    return out;
  }
};

// Runs `steps` lock steps over BoundedTiming(1): step s is folded at tick
// s + 1, and a crash at tick s is a crash in step s.
template <typename P, typename Make>
SyncConsensusRun<P, Make> run_sync(std::size_t n, std::size_t crash_k, SimTime crash_step,
                                   SimTime stagger, bool partial, std::size_t steps,
                                   std::uint64_t seed, Make make) {
  SystemConfig cfg;
  cfg.ids = ids_anonymous(n);  // identifiers are irrelevant to both baselines
  cfg.timing = std::make_unique<BoundedTiming>(1);
  if (crash_k > 0) cfg.crashes = crashes_last_k(n, crash_k, crash_step, stagger, partial);
  cfg.seed = seed;
  SyncConsensusRun<P, Make> run;
  run.sys = std::make_unique<System>(std::move(cfg));
  run.proposals = distinct_proposals(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto p = make(run.proposals[i]);
    run.procs.push_back(p.get());
    run.sys->set_process(i, std::move(p));
  }
  run.sys->start();
  run.sys->run_until(static_cast<SimTime>(steps));
  return run;
}

auto make_floodmin(std::size_t t) {
  return [t](Value v) { return std::make_unique<FloodMinSync>(v, t); };
}

auto make_apstab() {
  return [](Value v) { return std::make_unique<ApStabilitySync>(v); };
}

TEST(FloodMin, DecidesMinimumAfterTPlusOneRounds) {
  auto run = run_sync<FloodMinSync>(5, 0, 0, 0, false, 6, 1, make_floodmin(2));
  auto dec = run.decisions();
  for (const auto& d : dec) {
    ASSERT_TRUE(d.decided);
    EXPECT_EQ(d.value, 100);  // the minimum proposal
    EXPECT_EQ(d.round, 3);    // t+1
  }
  auto res = check_consensus(GroundTruth::from(*run.sys), run.proposals, dec);
  EXPECT_TRUE(res.ok) << res.detail;
}

struct FloodMinSweep
    : ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, bool, std::uint64_t>> {};

TEST_P(FloodMinSweep, UniformConsensusUnderAnyCrashPattern) {
  auto [n, t, partial, seed] = GetParam();
  // Adversarial pattern: one crash per step from step 0 (incl. partial
  // broadcast deliveries) — the hardest schedule for flooding.
  auto run = run_sync<FloodMinSync>(n, t, 0, 1, partial, t + 3, seed, make_floodmin(t));
  auto res = check_consensus(GroundTruth::from(*run.sys), run.proposals, run.decisions());
  EXPECT_TRUE(res.ok) << res.detail;
}

const testing::ParamGrid<FloodMinSweep::ParamType> kFloodMinGrid(
    {3, 5, 8}, {0, 1, 3, 6}, {false, true}, {1, 2, 3});

INSTANTIATE_TEST_SUITE_P(
    Sweep, FloodMinSweep,
    kFloodMinGrid.where([](auto n, auto t, auto...) { return t < n; }),
    kFloodMinGrid.names());

TEST(ApStability, FailureFreeRunDecidesInThreeSteps) {
  // Step 0 and 1 give equal counts; decision at step 1, relay at step 2.
  auto run = run_sync<ApStabilitySync>(5, 0, 0, 0, false, 5, 1, make_apstab());
  for (auto* p : run.procs) {
    ASSERT_TRUE(p->decision().decided);
    EXPECT_EQ(p->decision().value, 100);
    EXPECT_EQ(p->steps_to_decide(), 2u);
  }
}

TEST(ApStability, ConsecutiveCrashesDelayTheStabilityWindow) {
  // With full delivery a dying sender still sends in its crash step, so the
  // count drops exactly once per crash: the adversary's best schedule is one
  // crash per step, keeping the count strictly decreasing for t steps.
  auto run = run_sync<ApStabilitySync>(8, 3, 0, 1, false, 16, 2, make_apstab());
  auto res =
      check_consensus(GroundTruth::from(*run.sys), run.proposals, run.decisions());
  EXPECT_TRUE(res.ok) << res.detail;
  std::size_t max_steps = 0;
  for (ProcIndex i = 0; i < 8; ++i) {
    if (run.sys->is_correct(i)) max_steps = std::max(max_steps, run.procs[i]->steps_to_decide());
  }
  // Counts 8,7,6,5 then stable: decision at step t+1, i.e. t+2 steps run —
  // one more than FloodMin's fixed t+1, the price of not knowing t.
  EXPECT_GE(max_steps, 5u);
}

struct ApStabilitySweep
    : ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, std::uint64_t>> {
};

TEST_P(ApStabilitySweep, UniformUnderFullDeliveryCrashes) {
  auto [n, t, stagger, seed] = GetParam();
  auto run = run_sync<ApStabilitySync>(n, t, 0, stagger, /*partial=*/false,
                                       2 * t + 8, seed, make_apstab());
  auto res = check_consensus(GroundTruth::from(*run.sys), run.proposals, run.decisions());
  EXPECT_TRUE(res.ok) << res.detail;
}

const testing::ParamGrid<ApStabilitySweep::ParamType> kApStabilityGrid(
    {3, 6, 9}, {0, 2, 5}, {1, 2, 3}, {1, 2});

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApStabilitySweep,
    kApStabilityGrid.where([](auto n, auto t, auto...) { return t < n; }),
    kApStabilityGrid.names());

TEST(ApStability, PartialCrashesStillAgreeAmongCorrect) {
  // Under crash-during-broadcast the early decision is non-uniform: check
  // the relaxed property across many seeds (the strict one may fail — that
  // asymmetry is the documented caveat, and is itself asserted here).
  bool saw_uniform_violation = false;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto run = run_sync<ApStabilitySync>(6, 3, 0, 1, /*partial=*/true, 16, seed, make_apstab());
    const GroundTruth gt = GroundTruth::from(*run.sys);
    auto relaxed = check_consensus_correct_only(gt, run.proposals, run.decisions());
    EXPECT_TRUE(relaxed.ok) << "seed " << seed << ": " << relaxed.detail;
    if (!check_consensus(gt, run.proposals, run.decisions())) saw_uniform_violation = true;
  }
  // Not asserted: whether 20 seeds include a uniform-agreement violation is
  // schedule luck; record it for human eyes instead.
  if (saw_uniform_violation) {
    std::puts("[ note ] uniform agreement violated by a faulty early decider (expected)");
  }
}

}  // namespace
}  // namespace hds
