// Figure 6 (◇HP̄ in HPS) property tests — the paper's Theorem 5 and
// Corollary 2 as machine checks: after GST the detector converges to
// I(Correct) permanently, and the HΩ extraction elects a common correct
// leader identifier with its exact multiplicity. Swept over system size,
// homonymy degree, GST, delta, pre-GST loss and crash patterns.
#include "fd/impl/ohp_polling.h"

#include <gtest/gtest.h>

#include <tuple>

#include "consensus/harness.h"
#include "spec/fd_checkers.h"
#include "support/param_grid.h"

namespace hds {
namespace {

TEST(OHPPolling, ConvergesInFullySynchronousRun) {
  Fig6Params p;
  p.ids = ids_unique(4);
  p.net = {.gst = 0, .delta = 2, .pre_gst_loss = 0.0, .pre_gst_max_delay = 1};
  p.run_for = 800;
  p.stable_window = 100;
  auto r = run_fig6(p);
  EXPECT_TRUE(r.ohp_check.ok) << r.ohp_check.detail;
  EXPECT_TRUE(r.homega_check.ok) << r.homega_check.detail;
  EXPECT_GE(r.stabilization_time, 0);
}

TEST(OHPPolling, SurvivesLossyChaoticPreGstPeriod) {
  Fig6Params p;
  p.ids = ids_homonymous(6, 3, 5);
  p.crashes = crashes_last_k(6, 2, 70);
  p.net = {.gst = 150, .delta = 4, .pre_gst_loss = 0.5, .pre_gst_max_delay = 60};
  p.run_for = 4000;
  p.stable_window = 400;
  auto r = run_fig6(p);
  EXPECT_TRUE(r.ohp_check.ok) << r.ohp_check.detail;
  EXPECT_TRUE(r.homega_check.ok) << r.homega_check.detail;
  EXPECT_GE(r.stabilization_time, 0);
}

TEST(OHPPolling, TimeoutAdaptsUpward) {
  // With delta = 8 the initial timeout of 1 is too small; stale replies
  // must have pushed it up by the end of the run.
  Fig6Params p;
  p.ids = ids_unique(3);
  p.net = {.gst = 0, .delta = 8, .pre_gst_loss = 0.0, .pre_gst_max_delay = 1};
  p.run_for = 3000;
  p.stable_window = 300;
  auto r = run_fig6(p);
  EXPECT_TRUE(r.ohp_check.ok) << r.ohp_check.detail;
  EXPECT_GT(r.max_final_timeout, 1);
}

TEST(OHPPolling, AnonymousExtremeCountsAliveBottoms) {
  // All processes share the bottom identifier: h_trusted must become the
  // multiset of |Correct| bottoms.
  Fig6Params p;
  p.ids = ids_anonymous(5);
  p.crashes = crashes_last_k(5, 2, 50);
  p.net = {.gst = 80, .delta = 3, .pre_gst_loss = 0.2, .pre_gst_max_delay = 30};
  p.run_for = 3000;
  p.stable_window = 300;
  auto r = run_fig6(p);
  EXPECT_TRUE(r.ohp_check.ok) << r.ohp_check.detail;
}

TEST(OHPPolling, HOmegaFallbackBeforeFirstRoundIsSelf) {
  OHPPolling fd;
  SystemConfig cfg;
  cfg.ids = {9};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(cfg));
  fd.on_start(sys.env(0));
  EXPECT_EQ(fd.h_omega().leader, 9u);
  EXPECT_EQ(fd.h_omega().multiplicity, 1u);
}

TEST(OHPPolling, RepliesOnlyOncePerPollerRound) {
  // Protocol-level: receiving the same POLLING(r, id) twice (two homonymous
  // pollers at the same round) triggers exactly one P_REPLY.
  SystemConfig cfg;
  cfg.ids = {1, 2};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(cfg));
  sys.set_process(0, std::make_unique<OHPPolling>());
  sys.set_process(1, std::make_unique<OHPPolling>());
  sys.start();
  sys.run_until(0);  // deliver on_start only
  auto& fd = static_cast<OHPPolling&>(sys.process(0));
  const auto before = sys.net_stats().broadcasts_by_type;
  fd.on_message(sys.env(0), make_message(OHPPolling::kPollType, PollingMsg{3, Id{7}}));
  fd.on_message(sys.env(0), make_message(OHPPolling::kPollType, PollingMsg{3, Id{7}}));
  auto after = sys.net_stats().broadcasts_by_type;
  auto replies = [&](const std::map<std::string, std::uint64_t>& m) {
    auto it = m.find(OHPPolling::kReplyType);
    return it == m.end() ? 0ULL : it->second;
  };
  EXPECT_EQ(replies(after) - replies(before), 1u);
}

TEST(OHPPolling, ReplyRangesCoverMissedRounds) {
  // A poller that jumps from round 2 to round 9 gets one reply covering
  // (3..9): the piggybacking of lines 28-30.
  SystemConfig cfg;
  cfg.ids = {1};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(cfg));
  sys.set_process(0, std::make_unique<OHPPolling>());
  sys.start();
  sys.run_until(0);
  auto& fd = static_cast<OHPPolling&>(sys.process(0));
  fd.on_message(sys.env(0), make_message(OHPPolling::kPollType, PollingMsg{2, Id{7}}));
  fd.on_message(sys.env(0), make_message(OHPPolling::kPollType, PollingMsg{9, Id{7}}));
  sys.run_until(10);  // let the replies deliver (self link)
  // Now verify by acting as the poller with id 7: simulate that the replies
  // would cover rounds 3..9 — we check via the network stats that exactly 2
  // replies were sent (one for round <=2, one for 3..9).
  // One copy: each net_stats() call rebuilds the map it returns.
  const NetworkStats stats = sys.net_stats();
  auto it = stats.broadcasts_by_type.find(OHPPolling::kReplyType);
  ASSERT_NE(it, stats.broadcasts_by_type.end());
  // Our own polling loop also broadcasts replies to id 1; count only >= 2.
  EXPECT_GE(it->second, 2u);
}

TEST(OHPPolling, ConvergesOverAsymmetricLinks) {
  // Permanently slow directed links (PerLinkTiming) still satisfy the HPS
  // axioms (bounded from time 0): Fig. 6 must absorb the asymmetry through
  // its timeout, exactly as it absorbs a uniform delta.
  SystemConfig cfg;
  cfg.ids = ids_homonymous(6, 3, 9);
  cfg.timing = std::make_unique<PerLinkTiming>(1, 8, 2, /*seed=*/23);
  cfg.crashes = crashes_last_k(6, 2, 40, 9);
  cfg.seed = 3;
  System sys(std::move(cfg));
  std::vector<OHPPolling*> fds;
  for (ProcIndex i = 0; i < 6; ++i) {
    auto fd = std::make_unique<OHPPolling>();
    fds.push_back(fd.get());
    sys.set_process(i, std::move(fd));
  }
  sys.start();
  sys.run_until(4000);
  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<Multiset<Id>>*> trusted;
  for (auto* fd : fds) trusted.push_back(&fd->trusted_trace());
  auto res = check_ohp(gt, trusted, 4000, 400);
  EXPECT_TRUE(res.ok) << res.detail;
}

struct OhpSweep
    : ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t, SimTime, int>> {};

TEST_P(OhpSweep, Theorem5AndCorollary2Hold) {
  auto [n, distinct, crash_k, gst, seed] = GetParam();
  Fig6Params p;
  p.ids = ids_homonymous(n, distinct, 17 * seed + 1);
  p.crashes = crashes_last_k(n, crash_k, gst / 2, /*stagger=*/7);
  p.net = {.gst = gst, .delta = 3, .pre_gst_loss = 0.3, .pre_gst_max_delay = 25};
  p.seed = static_cast<std::uint64_t>(seed);
  p.run_for = 4000;
  p.stable_window = 400;
  auto r = run_fig6(p);
  EXPECT_TRUE(r.ohp_check.ok) << r.ohp_check.detail;
  EXPECT_TRUE(r.homega_check.ok) << r.homega_check.detail;
}

const testing::ParamGrid<OhpSweep::ParamType> kOhpGrid({3, 6}, {1, 2, 6}, {0, 2}, {0, 120}, {1, 2});

INSTANTIATE_TEST_SUITE_P(
    Sweep, OhpSweep,
    kOhpGrid.where([](auto n, auto distinct, auto crash_k, auto...) {
      return distinct <= n && crash_k < n;
    }),
    kOhpGrid.names());

}  // namespace
}  // namespace hds
