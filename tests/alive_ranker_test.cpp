// Figure 3 (class S) property tests: eventually the correct identifiers
// permanently occupy the prefix of every correct process's alive list.
#include "fd/impl/alive_ranker.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "fd/ground_truth.h"
#include "sim/system.h"
#include "spec/fd_checkers.h"
#include "support/param_grid.h"

namespace hds {
namespace {

struct Run {
  std::unique_ptr<System> sys;
  std::vector<AliveRanker*> fds;
};

Run run_ranker(std::size_t n, std::size_t crash_k, SimTime crash_at, std::uint64_t seed,
               SimTime run_for) {
  SystemConfig cfg;
  for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
  cfg.timing = std::make_unique<AsyncTiming>(1, 6);
  cfg.crashes.resize(n);
  for (std::size_t j = 0; j < crash_k; ++j) cfg.crashes[n - 1 - j] = CrashPlan{crash_at};
  cfg.seed = seed;
  Run r;
  r.sys = std::make_unique<System>(std::move(cfg));
  for (ProcIndex i = 0; i < n; ++i) {
    auto fd = std::make_unique<AliveRanker>(5);
    r.fds.push_back(fd.get());
    r.sys->set_process(i, std::move(fd));
  }
  r.sys->start();
  r.sys->run_until(run_for);
  return r;
}

TEST(AliveRanker, NoCrashesEveryoneListsEveryone) {
  auto r = run_ranker(5, 0, 0, 1, 300);
  for (auto* fd : r.fds) {
    auto list = fd->alive_list();
    EXPECT_EQ(list.size(), 5u);
  }
}

TEST(AliveRanker, CrashedIdsSinkBelowCorrectOnes) {
  auto r = run_ranker(6, 2, 40, 2, 1000);
  const GroundTruth gt = GroundTruth::from(*r.sys);
  std::vector<const Trajectory<std::vector<Id>>*> traces;
  for (auto* fd : r.fds) traces.push_back(&fd->trace());
  auto res = check_ranker(gt, traces, 1000, 100);
  EXPECT_TRUE(res.ok) << res.detail;
  // Crashed ids are still listed (never removed), just outranked.
  for (ProcIndex i : r.sys->correct_set()) {
    EXPECT_EQ(r.fds[i]->alive_list().size(), 6u);
  }
}

TEST(AliveRanker, MoveToFrontOnEachAliveMessage) {
  // Direct protocol-level check: delivering ALIVE(i) puts i at rank 1.
  auto r = run_ranker(3, 0, 0, 3, 100);
  auto* fd = r.fds[0];
  auto list = fd->alive_list();
  ASSERT_EQ(list.size(), 3u);
  // Feed a message directly.
  fd->on_message(r.sys->env(0), make_message(AliveRanker::kMsgType, AliveMsg{list.back()}));
  EXPECT_EQ(fd->alive_list().front(), list.back());
  EXPECT_EQ(fd->alive_list().size(), 3u);  // moved, not duplicated
}

TEST(AliveRanker, IgnoresForeignMessageTypes) {
  AliveRanker fd(5);
  // No Env needed for the negative path: unknown type is dropped before use.
  SystemConfig cfg;
  cfg.ids = {1};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(cfg));
  fd.on_message(sys.env(0), make_message("OTHER", 42));
  EXPECT_TRUE(fd.alive_list().empty());
}

struct RankerSweep : ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::uint64_t>> {};

TEST_P(RankerSweep, DefinitionOneHolds) {
  auto [n, crash_k, seed] = GetParam();
  auto r = run_ranker(n, crash_k, 30, seed, 1200);
  const GroundTruth gt = GroundTruth::from(*r.sys);
  std::vector<const Trajectory<std::vector<Id>>*> traces;
  for (auto* fd : r.fds) traces.push_back(&fd->trace());
  auto res = check_ranker(gt, traces, 1200, 150);
  EXPECT_TRUE(res.ok) << res.detail;
}

const testing::ParamGrid<RankerSweep::ParamType> kRankerGrid({2, 4, 7}, {0, 1, 3}, {1, 2, 3});

INSTANTIATE_TEST_SUITE_P(
    Sweep, RankerSweep,
    kRankerGrid.where([](auto n, auto crash_k, auto...) { return crash_k < n; }),
    kRankerGrid.names());

}  // namespace
}  // namespace hds
