// Tests of the event-driven system: broadcast semantics, timers, crash
// injection (including crash-during-broadcast partial delivery), and the
// lock-step rounds of the synchronous model.
#include "sim/system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "fd/impl/alive_ranker.h"
#include "net/codec.h"

namespace hds {
namespace {

struct PingMsg {
  int payload;
};

// Records everything it sees; can be scripted to broadcast on start/timer.
class Recorder final : public Process {
 public:
  void on_start(Env& env) override {
    started_at = env.local_now();
    self = env.self_id();
    if (broadcast_on_start) env.broadcast(make_message("PING", PingMsg{7}));
    if (timer_delay >= 0) env.set_timer(timer_delay);
  }
  void on_message(Env&, const Message& m) override {
    if (const auto* b = m.as<PingMsg>()) received.push_back(b->payload);
  }
  void on_timer(Env& env, TimerId) override {
    ++timers_fired;
    if (broadcast_on_timer) env.broadcast(make_message("PING", PingMsg{9}));
  }

  bool broadcast_on_start = false;
  bool broadcast_on_timer = false;
  SimTime timer_delay = -1;
  SimTime started_at = -1;
  Id self = 0;
  int timers_fired = 0;
  std::vector<int> received;
};

SystemConfig base_config(std::size_t n) {
  SystemConfig cfg;
  for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
  cfg.timing = std::make_unique<AsyncTiming>(1, 3);
  cfg.seed = 11;
  return cfg;
}

// A lock-step process: a step is a broadcast followed by a unit step timer.
// Over BoundedTiming(1), step s is broadcast at tick s and folded when the
// timer fires at tick s + 1.
struct StepMsg {
  Id from;
  SimTime step;
};

class LockStepEcho final : public Process {
 public:
  void on_start(Env& env) override { begin_step(env); }
  void on_message(Env&, const Message& m) override {
    if (const auto* b = m.as<StepMsg>()) pending_.push_back(*b);
  }
  void on_timer(Env& env, TimerId) override {
    std::vector<Id> froms;
    for (const StepMsg& b : pending_) {
      EXPECT_EQ(b.step, step_);  // a fold sees this step's copies only
      froms.push_back(b.from);
    }
    std::sort(froms.begin(), froms.end());
    folds.push_back(froms);
    pending_.clear();
    ++step_;
    begin_step(env);
  }

  std::vector<SimTime> sends;          // steps broadcast
  std::vector<std::vector<Id>> folds;  // senders seen, per folded step

 private:
  void begin_step(Env& env) {
    sends.push_back(step_);
    env.broadcast(make_message("STEP", StepMsg{env.self_id(), step_}));
    env.set_timer(1);
  }

  SimTime step_ = 0;
  std::vector<StepMsg> pending_;
};

std::vector<LockStepEcho*> install_lock_step(System& sys) {
  std::vector<LockStepEcho*> procs;
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    auto p = std::make_unique<LockStepEcho>();
    procs.push_back(p.get());
    sys.set_process(i, std::move(p));
  }
  return procs;
}

SystemConfig lock_step_config(std::size_t n) {
  SystemConfig cfg = base_config(n);
  cfg.timing = std::make_unique<BoundedTiming>(1);
  return cfg;
}

TEST(System, StartsEveryProcessAtTimeZero) {
  System sys(base_config(3));
  std::vector<Recorder*> recs;
  for (ProcIndex i = 0; i < 3; ++i) {
    auto r = std::make_unique<Recorder>();
    recs.push_back(r.get());
    sys.set_process(i, std::move(r));
  }
  sys.start();
  sys.run_until(10);
  for (auto* r : recs) EXPECT_EQ(r->started_at, 0);
  EXPECT_EQ(recs[0]->self, 1u);
  EXPECT_EQ(recs[2]->self, 3u);
}

TEST(System, BroadcastReachesEveryoneIncludingSelf) {
  System sys(base_config(4));
  std::vector<Recorder*> recs;
  for (ProcIndex i = 0; i < 4; ++i) {
    auto r = std::make_unique<Recorder>();
    r->broadcast_on_start = (i == 0);
    recs.push_back(r.get());
    sys.set_process(i, std::move(r));
  }
  sys.start();
  sys.run_until(20);
  for (auto* r : recs) EXPECT_EQ(r->received, std::vector<int>{7});
  EXPECT_EQ(sys.net_stats().broadcasts, 1u);
  EXPECT_EQ(sys.net_stats().copies_sent, 4u);
  EXPECT_EQ(sys.net_stats().copies_delivered, 4u);
  // "PING" has no registered wire codec, so the byte estimate is zero.
  EXPECT_EQ(sys.net_stats().bytes_sent, 0u);
  EXPECT_EQ(sys.net_stats().bytes_received, 0u);
}

TEST(System, ByteCountersTrackEstimatedFrameSizes) {
  // A codec-registered body is costed at its exact v1 frame size per copy,
  // so simulated byte counts are comparable with the UDP substrate's.
  struct AliveOnce final : Process {
    void on_start(Env& env) override {
      env.broadcast(make_message(AliveRanker::kMsgType, AliveMsg{env.self_id()}));
    }
  };
  System sys(base_config(3));
  sys.set_process(0, std::make_unique<AliveOnce>());
  for (ProcIndex i = 1; i < 3; ++i) sys.set_process(i, std::make_unique<Recorder>());
  sys.start();
  sys.run_until(50);
  const auto frame = net::encoded_frame_size(
      net::builtin_codecs(), make_message(AliveRanker::kMsgType, AliveMsg{1}), 0, 1);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(sys.net_stats().bytes_sent, 3 * *frame);
  EXPECT_EQ(sys.net_stats().bytes_received, 3 * *frame);
}

TEST(System, TimersFireAfterDelay) {
  System sys(base_config(1));
  auto r = std::make_unique<Recorder>();
  r->timer_delay = 15;
  auto* rp = r.get();
  sys.set_process(0, std::move(r));
  sys.start();
  sys.run_until(14);
  EXPECT_EQ(rp->timers_fired, 0);
  sys.run_until(15);
  EXPECT_EQ(rp->timers_fired, 1);
}

TEST(System, CrashedProcessReceivesNothing) {
  auto cfg = base_config(3);
  cfg.crashes = {std::nullopt, CrashPlan{5}, std::nullopt};
  System sys(std::move(cfg));
  std::vector<Recorder*> recs;
  for (ProcIndex i = 0; i < 3; ++i) {
    auto r = std::make_unique<Recorder>();
    // Process 0 broadcasts at t=30 via a timer, after 1's crash.
    if (i == 0) {
      r->timer_delay = 30;
      r->broadcast_on_timer = true;
    }
    recs.push_back(r.get());
    sys.set_process(i, std::move(r));
  }
  sys.start();
  sys.run_until(60);
  EXPECT_TRUE(recs[1]->received.empty());
  EXPECT_EQ(recs[0]->received, std::vector<int>{9});
  EXPECT_EQ(recs[2]->received, std::vector<int>{9});
  EXPECT_EQ(sys.net_stats().copies_to_dead, 1u);
}

TEST(System, CrashedProcessStopsBroadcasting) {
  auto cfg = base_config(2);
  cfg.crashes = {CrashPlan{10}, std::nullopt};
  System sys(std::move(cfg));
  auto r0 = std::make_unique<Recorder>();
  r0->timer_delay = 20;  // fires after its own crash — must be suppressed
  r0->broadcast_on_timer = true;
  auto* r0p = r0.get();
  auto r1 = std::make_unique<Recorder>();
  auto* r1p = r1.get();
  sys.set_process(0, std::move(r0));
  sys.set_process(1, std::move(r1));
  sys.start();
  sys.run_until(60);
  EXPECT_EQ(r0p->timers_fired, 0);
  EXPECT_TRUE(r1p->received.empty());
}

TEST(System, DyingBroadcastReachesArbitrarySubset) {
  // A broadcast issued exactly at the crash instant delivers each copy with
  // the configured probability; over many trials some but not all copies
  // survive.
  int delivered_total = 0;
  const int trials = 40;
  const std::size_t n = 6;
  for (int trial = 0; trial < trials; ++trial) {
    SystemConfig cfg;
    for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
    cfg.timing = std::make_unique<AsyncTiming>(1, 2);
    cfg.seed = 100 + trial;
    cfg.crashes.resize(n);
    cfg.crashes[0] = CrashPlan{10, /*partial_broadcast=*/true};
    cfg.dying_copy_delivery_prob = 0.5;
    System sys(std::move(cfg));
    std::vector<Recorder*> recs;
    for (ProcIndex i = 0; i < n; ++i) {
      auto r = std::make_unique<Recorder>();
      if (i == 0) {
        r->timer_delay = 10;  // broadcast exactly at the crash instant
        r->broadcast_on_timer = true;
      }
      recs.push_back(r.get());
      sys.set_process(i, std::move(r));
    }
    sys.start();
    sys.run_until(30);
    for (ProcIndex i = 1; i < n; ++i) delivered_total += recs[i]->received.size();
  }
  const int max_possible = trials * (static_cast<int>(n) - 1);
  EXPECT_GT(delivered_total, max_possible / 5);
  EXPECT_LT(delivered_total, max_possible * 4 / 5);
}

TEST(System, DeliveryLatencyAccounting) {
  SystemConfig cfg;
  cfg.ids = {1, 2, 3};
  cfg.timing = std::make_unique<AsyncTiming>(2, 2);  // fixed latency 2
  System sys(std::move(cfg));
  std::vector<Recorder*> recs;
  for (ProcIndex i = 0; i < 3; ++i) {
    auto r = std::make_unique<Recorder>();
    r->broadcast_on_start = (i == 0);
    recs.push_back(r.get());
    sys.set_process(i, std::move(r));
  }
  sys.start();
  sys.run_until(10);
  const NetworkStats& stats = sys.net_stats();
  EXPECT_EQ(stats.copies_delivered, 3u);
  EXPECT_EQ(stats.latency_max, 2);
  EXPECT_DOUBLE_EQ(stats.mean_latency(), 2.0);
}

TEST(System, NetStatsKeptFromOneCallDoNotChangeOnTheNext) {
  // Process 0 broadcasts at start and again when its timer fires at t = 5.
  System sys(base_config(3));
  for (ProcIndex i = 0; i < 3; ++i) {
    auto r = std::make_unique<Recorder>();
    if (i == 0) {
      r->broadcast_on_start = true;
      r->broadcast_on_timer = true;
      r->timer_delay = 5;
    }
    sys.set_process(i, std::move(r));
  }
  sys.start();
  sys.run_until(2);
  const NetworkStats& first = sys.net_stats();
  sys.run_until(20);
  const NetworkStats& second = sys.net_stats();
  EXPECT_EQ(first.broadcasts, 1u);
  EXPECT_EQ(first.broadcasts_by_type.at("PING"), 1u);
  EXPECT_EQ(second.broadcasts, 2u);
  EXPECT_EQ(second.broadcasts_by_type.at("PING"), 2u);
}

TEST(System, GroundTruthAccessors) {
  auto cfg = base_config(4);
  cfg.crashes = {std::nullopt, CrashPlan{5}, std::nullopt, CrashPlan{8}};
  System sys(std::move(cfg));
  EXPECT_TRUE(sys.is_correct(0));
  EXPECT_FALSE(sys.is_correct(1));
  EXPECT_EQ(sys.correct_set(), (std::vector<ProcIndex>{0, 2}));
  EXPECT_EQ(sys.correct_ids(), (Multiset<Id>{1, 3}));
  EXPECT_EQ(sys.all_ids().size(), 4u);
  EXPECT_EQ(sys.alive_count_at(0), 4u);
  EXPECT_EQ(sys.alive_count_at(5), 4u);  // alive through the crash instant
  EXPECT_EQ(sys.alive_count_at(6), 3u);
  EXPECT_EQ(sys.alive_count_at(9), 2u);
}

TEST(System, ValidatesConfiguration) {
  SystemConfig empty;
  empty.timing = std::make_unique<AsyncTiming>(1, 1);
  EXPECT_THROW(System{std::move(empty)}, std::invalid_argument);

  SystemConfig no_timing;
  no_timing.ids = {1};
  EXPECT_THROW(System{std::move(no_timing)}, std::invalid_argument);

  SystemConfig bad_crashes;
  bad_crashes.ids = {1, 2};
  bad_crashes.timing = std::make_unique<AsyncTiming>(1, 1);
  bad_crashes.crashes = {std::nullopt};
  EXPECT_THROW(System{std::move(bad_crashes)}, std::invalid_argument);
}

TEST(System, LockStepFoldSeesItsStepFromEveryAliveSender) {
  System sys(lock_step_config(3));
  auto procs = install_lock_step(sys);
  sys.start();
  sys.run_until(4);  // folds steps 0..3
  for (auto* p : procs) {
    ASSERT_EQ(p->folds.size(), 4u);
    for (const auto& froms : p->folds) EXPECT_EQ(froms, (std::vector<Id>{1, 2, 3}));
  }
}

TEST(System, LockStepCrasherSendsThroughItsCrashStepAndFoldsNoMore) {
  auto cfg = lock_step_config(3);
  cfg.crashes = {std::nullopt, CrashPlan{1}, std::nullopt};
  System sys(std::move(cfg));
  auto procs = install_lock_step(sys);
  sys.start();
  sys.run_until(3);  // folds steps 0..2
  // The crasher sent in steps 0 and 1, and folded step 0 only.
  EXPECT_EQ(procs[1]->sends, (std::vector<SimTime>{0, 1}));
  ASSERT_EQ(procs[1]->folds.size(), 1u);
  // Survivors saw all 3 senders in steps 0 and 1, then 2.
  ASSERT_EQ(procs[0]->folds.size(), 3u);
  EXPECT_EQ(procs[0]->folds[0], (std::vector<Id>{1, 2, 3}));
  EXPECT_EQ(procs[0]->folds[1], (std::vector<Id>{1, 2, 3}));
  EXPECT_EQ(procs[0]->folds[2], (std::vector<Id>{1, 3}));
}

TEST(System, StartRequiresAllProcessesInstalled) {
  System sys(base_config(2));
  sys.set_process(0, std::make_unique<Recorder>());
  EXPECT_THROW(sys.start(), std::logic_error);
}

}  // namespace
}  // namespace hds
