// Figure 7 (HΣ in HSS) property tests — Theorem 6 as a machine check:
// validity, monotonicity, liveness and safety of the produced quora, under
// crash schedules including crash-during-broadcast, plus the event-engine
// lock-step adapter.
#include "fd/impl/hsigma_sync.h"

#include <gtest/gtest.h>

#include <tuple>

#include "consensus/harness.h"
#include "spec/fd_checkers.h"
#include "support/param_grid.h"

namespace hds {
namespace {

TEST(HSigmaSync, QuietRunProducesTheFullQuorum) {
  Fig7Params p;
  p.ids = ids_homonymous(4, 2, 3);
  p.steps = 10;
  auto r = run_fig7(p);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
  EXPECT_EQ(r.liveness_step, 0);       // first step already certifies everyone
  EXPECT_EQ(r.max_quora_stored, 1u);   // the same multiset every step
}

TEST(HSigmaSync, CrashesCreateNestedQuora) {
  Fig7Params p;
  p.ids = ids_homonymous(6, 3, 9);
  p.crashes = sync_crashes_last_k(6, 2, 2, /*stagger=*/2);
  p.steps = 12;
  auto r = run_fig7(p);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
  EXPECT_GE(r.liveness_step, 5);       // only after the last crash step
  EXPECT_GE(r.max_quora_stored, 2u);   // shrinking multisets accumulate
}

TEST(HSigmaSync, PartialDyingBroadcastStaysSafe) {
  // A process crashing during its broadcast gives different receivers
  // different multisets in that step; safety must still hold.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Fig7Params p;
    p.ids = ids_homonymous(5, 2, 4);
    p.crashes = sync_crashes_last_k(5, 2, 1, 1, /*partial=*/true);
    p.steps = 10;
    p.seed = seed;
    auto r = run_fig7(p);
    EXPECT_TRUE(r.check.ok) << "seed " << seed << ": " << r.check.detail;
  }
}

TEST(HSigmaSync, AnonymousExtreme) {
  Fig7Params p;
  p.ids = ids_anonymous(5);
  p.crashes = sync_crashes_last_k(5, 3, 1, 1);
  p.steps = 12;
  auto r = run_fig7(p);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(HSigmaCore, EmptyStepIsIgnored) {
  HSigmaCore core;
  core.on_step_idents(0, Multiset<Id>{});
  EXPECT_TRUE(core.snapshot().labels.empty());
  EXPECT_TRUE(core.snapshot().quora.empty());
}

TEST(HSigmaCore, LabelIsTheMultisetItself) {
  HSigmaCore core;
  Multiset<Id> m{1, 1, 2};
  core.on_step_idents(0, m);
  const auto snap = core.snapshot();
  ASSERT_EQ(snap.quora.size(), 1u);
  EXPECT_EQ(snap.quora.begin()->first, Label::of_multiset(m));
  EXPECT_EQ(snap.quora.begin()->second, m);
  EXPECT_TRUE(snap.labels.contains(Label::of_multiset(m)));
}

// The event-engine adapter must produce the same detector as the lock-step
// engine when steps align with the link bound.
TEST(HSigmaComponent, EventEngineAdapterSatisfiesHSigma) {
  SystemConfig cfg;
  cfg.ids = ids_homonymous(5, 2, 6);
  cfg.timing = std::make_unique<BoundedTiming>(2);
  cfg.crashes = crashes_last_k(5, 2, 9);  // mid-run crashes
  cfg.seed = 3;
  System sys(std::move(cfg));
  std::vector<HSigmaComponent*> fds;
  for (ProcIndex i = 0; i < 5; ++i) {
    auto fd = std::make_unique<HSigmaComponent>(3);  // step_len > bound
    fds.push_back(fd.get());
    sys.set_process(i, std::move(fd));
  }
  sys.start();
  sys.run_until(300);
  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<HSigmaSnapshot>*> snaps;
  for (auto* fd : fds) snaps.push_back(&fd->core().trace());
  auto res = check_hsigma(gt, snaps);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(HSigmaComponent, ViolatedSynchronyBoundBreaksTheDetector) {
  // The Fig. 7 adapter's contract is step_len > link bound (the HSS model's
  // known delta). Violate it — delays up to 6 with a step length of 3 — and
  // steps observe partial sender sets, producing splittable quora that the
  // exact safety checker flags. This is why HΣ lives in HSS, not HPS.
  SystemConfig cfg;
  cfg.ids = ids_homonymous(5, 2, 6);
  cfg.timing = std::make_unique<BoundedTiming>(6);
  cfg.seed = 11;
  System sys(std::move(cfg));
  std::vector<HSigmaComponent*> fds;
  for (ProcIndex i = 0; i < 5; ++i) {
    auto fd = std::make_unique<HSigmaComponent>(3);  // < the actual bound
    fds.push_back(fd.get());
    sys.set_process(i, std::move(fd));
  }
  sys.start();
  sys.run_until(300);
  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<HSigmaSnapshot>*> snaps;
  for (auto* fd : fds) snaps.push_back(&fd->core().trace());
  auto res = check_hsigma_safety(gt, snaps);
  EXPECT_FALSE(res.ok);
}

struct HSigmaSweep
    : ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, bool, int>> {};

TEST_P(HSigmaSweep, Theorem6Holds) {
  auto [n, distinct, crash_k, partial, seed] = GetParam();
  Fig7Params p;
  p.ids = ids_homonymous(n, distinct, 31 * seed + 7);
  p.crashes = sync_crashes_last_k(n, crash_k, 1, 1, partial);
  p.steps = 14;
  p.seed = static_cast<std::uint64_t>(seed);
  auto r = run_fig7(p);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
  EXPECT_GE(r.liveness_step, 0);
}

const testing::ParamGrid<HSigmaSweep::ParamType> kHSigmaGrid(
    {2, 5, 7}, {1, 3, 7}, {0, 1, 4}, {false, true}, {1, 2});

INSTANTIATE_TEST_SUITE_P(
    Sweep, HSigmaSweep,
    kHSigmaGrid.where([](auto n, auto distinct, auto crash_k, auto...) {
      return distinct <= n && crash_k < n;
    }),
    kHSigmaGrid.names());

}  // namespace
}  // namespace hds
