// AP (anonymous perfect detector) property tests: anap over-approximates
// the alive count at all times and converges to |Correct| — in lock step
// (unit delay, unit step) and with a longer step over a wider link bound.
#include "fd/impl/ap_sync.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "consensus/harness.h"
#include "spec/fd_checkers.h"
#include "support/param_grid.h"

namespace hds {
namespace {

struct LockStepRun {
  std::unique_ptr<System> sys;
  std::vector<APComponent*> fds;
};

// Runs `steps` lock steps: APComponent(1) over BoundedTiming(1), so step s is
// folded at tick s + 1.
LockStepRun run_ap(std::size_t n, std::size_t crash_k, SimTime crash_step, bool partial,
                   std::size_t steps, std::uint64_t seed) {
  SystemConfig cfg;
  cfg.ids = ids_anonymous(n);
  cfg.timing = std::make_unique<BoundedTiming>(1);
  if (crash_k > 0) cfg.crashes = crashes_last_k(n, crash_k, crash_step, 1, partial);
  cfg.seed = seed;
  LockStepRun r;
  r.sys = std::make_unique<System>(std::move(cfg));
  for (ProcIndex i = 0; i < n; ++i) {
    auto fd = std::make_unique<APComponent>(1);
    r.fds.push_back(fd.get());
    r.sys->set_process(i, std::move(fd));
  }
  r.sys->start();
  r.sys->run_until(static_cast<SimTime>(steps));
  return r;
}

TEST(APSync, NoCrashesCountsN) {
  auto r = run_ap(6, 0, 0, false, 5, 1);
  for (auto* fd : r.fds) EXPECT_EQ(fd->anap(), 6u);
}

TEST(APSync, BootstrapValueIsInfinity) {
  APComponent fd(1);
  EXPECT_EQ(fd.anap(), std::numeric_limits<std::size_t>::max());
}

TEST(APSync, ConvergesToCorrectCountAfterCrashes) {
  auto r = run_ap(6, 3, 1, false, 10, 2);
  for (ProcIndex i = 0; i < 6; ++i) {
    if (r.sys->is_correct(i)) {
      EXPECT_EQ(r.fds[i]->anap(), 3u);
    }
  }
}

struct ApSweep : ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, bool, int>> {};

TEST_P(ApSweep, SafetyAndLiveness) {
  auto [n, crash_k, partial, seed] = GetParam();
  const std::size_t steps = 12;
  auto r = run_ap(n, crash_k, 1, partial, steps, static_cast<std::uint64_t>(seed));
  const GroundTruth gt = GroundTruth::from(*r.sys);
  std::vector<const Trajectory<std::size_t>*> traces;
  for (auto* fd : r.fds) traces.push_back(&fd->core().trace());
  auto alive = [&](SimTime t) { return r.sys->alive_count_at(t); };
  auto res = check_ap(gt, traces, alive, static_cast<SimTime>(steps), 2);
  EXPECT_TRUE(res.ok) << res.detail;
}

const testing::ParamGrid<ApSweep::ParamType> kApGrid(
    {2, 5, 8}, {0, 1, 4}, {false, true}, {1, 2, 3});

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApSweep,
    kApGrid.where([](auto n, auto crash_k, auto...) { return crash_k < n; }),
    kApGrid.names());

TEST(APComponent, EventEngineAdapterConverges) {
  SystemConfig cfg;
  cfg.ids = ids_anonymous(5);
  cfg.timing = std::make_unique<BoundedTiming>(2);
  cfg.crashes = crashes_last_k(5, 2, 10);
  cfg.seed = 4;
  System sys(std::move(cfg));
  std::vector<APComponent*> fds;
  for (ProcIndex i = 0; i < 5; ++i) {
    auto fd = std::make_unique<APComponent>(3);
    fds.push_back(fd.get());
    sys.set_process(i, std::move(fd));
  }
  sys.start();
  sys.run_until(200);
  for (ProcIndex i = 0; i < 5; ++i) {
    if (sys.is_correct(i)) {
      EXPECT_EQ(fds[i]->anap(), 3u);
    }
  }
  // Safety at every recorded point, against the event clock.
  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<std::size_t>*> traces;
  for (auto* fd : fds) traces.push_back(&fd->core().trace());
  auto res = check_ap(gt, traces, [&](SimTime t) { return sys.alive_count_at(t); }, 200, 20);
  EXPECT_TRUE(res.ok) << res.detail;
}

TEST(APComponent, PartialSynchronyBreaksSafety) {
  // The paper (Section 1/3): AP is implementable in anonymous *synchronous*
  // systems but "it is easy to show that it cannot be implemented in most of
  // partially synchronous systems". Executable evidence: run the counting
  // construction under pre-GST message loss — step counts undershoot the
  // true alive count and the AP safety checker flags it.
  SystemConfig cfg;
  cfg.ids = ids_anonymous(6);
  cfg.timing = std::make_unique<PartialSyncTiming>(PartialSyncTiming::Params{
      .gst = 300, .delta = 2, .pre_gst_loss = 0.6, .pre_gst_max_delay = 2});
  cfg.seed = 5;
  System sys(std::move(cfg));
  std::vector<APComponent*> fds;
  for (ProcIndex i = 0; i < 6; ++i) {
    auto fd = std::make_unique<APComponent>(3);
    fds.push_back(fd.get());
    sys.set_process(i, std::move(fd));
  }
  sys.start();
  sys.run_until(400);
  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<std::size_t>*> traces;
  for (auto* fd : fds) traces.push_back(&fd->core().trace());
  auto res = check_ap(gt, traces, [&](SimTime t) { return sys.alive_count_at(t); }, 400, 40);
  EXPECT_FALSE(res.ok);  // safety (anap >= alive) violated before GST
}

}  // namespace
}  // namespace hds
