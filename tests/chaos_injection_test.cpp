// Fault injection on the simulator substrate: link clauses through the
// Network interposer seam, the split loss accounting, per-link pre-GST
// timing overrides, dynamic crash injection, and the event-triggered crash
// listeners.
#include "chaos/injector.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chaos/fault_plan.h"
#include "obs/metrics.h"
#include "sim/system.h"

namespace hds {
namespace {

using chaos::ClauseKind;
using chaos::FaultClause;
using chaos::FaultInjector;
using chaos::FaultPlan;

struct PingMsg {};

// Broadcasts PING at `send_times` and records each arrival instant.
class Pinger final : public Process {
 public:
  void on_start(Env& env) override {
    for (SimTime t : send_times) {
      if (t == 0) {
        env.broadcast(make_message("PING", PingMsg{}));
      } else {
        env.set_timer(t);
      }
    }
  }
  void on_timer(Env& env, TimerId) override { env.broadcast(make_message("PING", PingMsg{})); }
  void on_message(Env& env, const Message& m) override {
    if (m.type == "PING") arrivals.push_back(env.local_now());
  }

  std::vector<SimTime> send_times;
  std::vector<SimTime> arrivals;
};

struct Fixture {
  explicit Fixture(SystemConfig cfg) : sys(std::move(cfg)) {}
  System sys;
  std::vector<Pinger*> probes;
};

std::unique_ptr<Fixture> make_fixture(FaultInjector* inj, std::size_t n,
                                      std::unique_ptr<TimingModel> timing,
                                      std::vector<std::optional<CrashPlan>> crashes = {},
                                      obs::MetricsRegistry* metrics = nullptr,
                                      double dying_prob = 0.5) {
  SystemConfig cfg;
  for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(static_cast<Id>(i + 1));
  cfg.timing = std::move(timing);
  cfg.crashes = std::move(crashes);
  cfg.seed = 11;
  cfg.metrics = metrics;
  cfg.dying_copy_delivery_prob = dying_prob;
  auto fx = std::make_unique<Fixture>(std::move(cfg));
  for (ProcIndex i = 0; i < n; ++i) {
    auto p = std::make_unique<Pinger>();
    fx->probes.push_back(p.get());
    fx->sys.set_process(i, std::move(p));
  }
  if (inj != nullptr) inj->attach(fx->sys);
  return fx;
}

TEST(ChaosInjection, PartitionDropsMatchingCopiesUntilHeal) {
  FaultPlan plan;
  FaultClause part;
  part.kind = ClauseKind::kPartition;
  part.links.src = {0};
  part.links.dst = {1};
  part.until = 50;
  plan.clauses = {part};
  FaultInjector inj(plan, {1, 2}, 7);

  auto fx = make_fixture(&inj, 2, std::make_unique<AsyncTiming>(1, 1));
  fx->probes[0]->send_times = {0, 100};  // one inside the window, one after heal
  fx->sys.start();
  fx->sys.run_until(200);

  // The t=0 copy on 0 -> 1 was dropped; the t=100 one got through. Self
  // delivery (0 -> 0) never matched the selector.
  EXPECT_EQ(fx->probes[1]->arrivals.size(), 1u);
  EXPECT_EQ(fx->probes[0]->arrivals.size(), 2u);
  EXPECT_EQ(fx->sys.net_stats().copies_lost_link, 1u);
  EXPECT_EQ(fx->sys.net_stats().copies_lost_dying_sender, 0u);
  EXPECT_EQ(inj.stats().copies_dropped, 1u);
}

TEST(ChaosInjection, DelayClauseInflatesDeliveryAsymmetrically) {
  FaultPlan plan;
  FaultClause slow;
  slow.kind = ClauseKind::kDelay;
  slow.links.src = {0};
  slow.links.dst = {1};
  slow.delay = 10;
  plan.clauses = {slow};
  FaultInjector inj(plan, {1, 2}, 7);

  auto fx = make_fixture(&inj, 2, std::make_unique<AsyncTiming>(1, 1));
  fx->probes[0]->send_times = {0};
  fx->probes[1]->send_times = {0};
  fx->sys.start();
  fx->sys.run_until(100);

  // 0 -> 1 takes base 1 + injected 10; the reverse link keeps base latency.
  ASSERT_EQ(fx->probes[1]->arrivals.size(), 2u);  // own copy + slowed copy
  EXPECT_EQ(fx->probes[1]->arrivals.back(), 11);
  ASSERT_EQ(fx->probes[0]->arrivals.size(), 2u);
  EXPECT_EQ(fx->probes[0]->arrivals.back(), 1);
  EXPECT_EQ(inj.stats().copies_delayed, 1u);
}

TEST(ChaosInjection, DuplicateClauseInjectsTrailingCopies) {
  obs::MetricsRegistry reg;
  FaultPlan plan;
  FaultClause dup;
  dup.kind = ClauseKind::kDuplicate;
  dup.prob = 1.0;
  dup.count = 2;
  dup.delay = 3;  // trailing spread
  plan.clauses = {dup};
  FaultInjector inj(plan, {1, 2}, 7);

  auto fx = make_fixture(&inj, 2, std::make_unique<AsyncTiming>(1, 1), {}, &reg);
  fx->probes[0]->send_times = {0};
  fx->sys.start();
  fx->sys.run_until(100);

  // One broadcast, two links, each copy followed by 2 duplicates.
  EXPECT_EQ(fx->probes[0]->arrivals.size(), 3u);
  EXPECT_EQ(fx->probes[1]->arrivals.size(), 3u);
  const NetworkStats& st = fx->sys.net_stats();
  EXPECT_EQ(st.copies_sent, 2u);
  EXPECT_EQ(st.copies_duplicated, 4u);
  EXPECT_EQ(st.copies_delivered, 6u);
  EXPECT_EQ(reg.counter_total("net_copies_duplicated_total"), 4u);
}

TEST(ChaosInjection, DyingSenderLossIsAccountedSeparatelyFromLinkLoss) {
  obs::MetricsRegistry reg;
  // Process 0 crashes at t=0 while broadcasting; with delivery probability 0
  // every copy of that dying broadcast is lost on the sender side.
  std::vector<std::optional<CrashPlan>> crashes = {CrashPlan{0, /*partial_broadcast=*/true},
                                                   std::nullopt, std::nullopt};
  auto fx = make_fixture(nullptr, 3, std::make_unique<AsyncTiming>(1, 1), std::move(crashes),
                         &reg, /*dying_prob=*/0.0);
  fx->probes[0]->send_times = {0};
  fx->probes[1]->send_times = {0};
  fx->sys.start();
  fx->sys.run_until(100);

  const NetworkStats& st = fx->sys.net_stats();
  EXPECT_EQ(st.copies_lost_dying_sender, 3u);
  EXPECT_EQ(st.copies_lost_link, 0u);
  EXPECT_EQ(st.copies_lost(), 3u);
  EXPECT_EQ(reg.counter_total("net_copies_lost_dying_total"), 3u);
  EXPECT_EQ(reg.counter_total("net_copies_lost_link_total"), 0u);
  // Process 1's healthy broadcast still reached the two alive processes.
  EXPECT_EQ(fx->probes[1]->arrivals.size(), 1u);
  EXPECT_EQ(fx->probes[2]->arrivals.size(), 1u);
}

TEST(ChaosInjection, PerLinkPreGstLossOverride) {
  PartialSyncTiming::Params net;
  net.gst = 100;
  net.delta = 1;
  net.pre_gst_loss = 0.0;  // uniform default: lossless
  net.pre_gst_max_delay = 2;
  net.pre_gst_links[{0, 1}] = {.pre_gst_loss = 1.0, .pre_gst_max_delay = 0};

  auto fx = make_fixture(nullptr, 2, std::make_unique<PartialSyncTiming>(net));
  fx->probes[0]->send_times = {0, 150};  // pre-GST and post-GST broadcasts
  fx->sys.start();
  fx->sys.run_until(300);

  // Pre-GST the overridden link drops everything; after GST it recovers.
  EXPECT_EQ(fx->probes[1]->arrivals.size(), 1u);
  EXPECT_GE(fx->probes[1]->arrivals.front(), 150);
  // The self link 0 -> 0 kept the lossless default.
  EXPECT_EQ(fx->probes[0]->arrivals.size(), 2u);
  EXPECT_EQ(fx->sys.net_stats().copies_lost_link, 1u);
}

TEST(ChaosInjection, PerLinkPreGstDelayOverride) {
  PartialSyncTiming::Params net;
  net.gst = 100;
  net.delta = 1;
  net.pre_gst_max_delay = 2;
  net.pre_gst_links[{0, 1}] = {.pre_gst_loss = 0.0, .pre_gst_max_delay = 40};

  auto fx = make_fixture(nullptr, 2, std::make_unique<PartialSyncTiming>(net));
  fx->probes[0]->send_times = {0};
  fx->sys.start();
  fx->sys.run_until(300);

  ASSERT_EQ(fx->probes[1]->arrivals.size(), 1u);
  EXPECT_GE(fx->probes[1]->arrivals.front(), 1);
  EXPECT_LE(fx->probes[1]->arrivals.front(), 40);
  // The un-overridden self copy respected the uniform 2-tick bound.
  ASSERT_EQ(fx->probes[0]->arrivals.size(), 1u);
  EXPECT_LE(fx->probes[0]->arrivals.front(), 2);
}

TEST(ChaosInjection, PerLinkOverridesAreValidated) {
  PartialSyncTiming::Params bad;
  bad.gst = 10;
  bad.delta = 1;
  bad.pre_gst_links[{0, 1}] = {.pre_gst_loss = 1.5, .pre_gst_max_delay = 0};
  EXPECT_THROW(PartialSyncTiming{bad}, std::invalid_argument);

  PartialSyncTiming::Params neg;
  neg.gst = 10;
  neg.delta = 1;
  neg.pre_gst_links[{0, 1}] = {.pre_gst_loss = 0.1, .pre_gst_max_delay = -4};
  EXPECT_THROW(PartialSyncTiming{neg}, std::invalid_argument);
}

TEST(ChaosInjection, InjectCrashSilencesTheProcess) {
  auto fx = make_fixture(nullptr, 2, std::make_unique<AsyncTiming>(1, 1));
  fx->probes[0]->send_times = {0, 50};
  fx->sys.start();
  fx->sys.run_until(10);
  EXPECT_TRUE(fx->sys.is_correct(1));
  fx->sys.inject_crash(1, "test");
  EXPECT_FALSE(fx->sys.is_correct(1));
  fx->sys.run_until(200);
  // Process 1 saw the t=0 ping but not the t=50 one.
  EXPECT_EQ(fx->probes[1]->arrivals.size(), 1u);
  // Idempotent on an already-crashed process.
  fx->sys.inject_crash(1, "again");
  EXPECT_FALSE(fx->sys.is_correct(1));
}

// Listener teed in front of the injector's, recording what it was shown.
class RecordingListener final : public FdOutputListener {
 public:
  void on_homega_change(SimTime, const HOmegaOut& out) override { seen.push_back(out); }
  std::vector<HOmegaOut> seen;
};

TEST(ChaosInjection, LeaderChangeTriggerCrashesCarrierAndForwardsToInner) {
  FaultPlan plan;
  FaultClause trig;
  trig.kind = ClauseKind::kCrashOnLeaderChange;
  trig.count = 2;
  plan.clauses = {trig};
  FaultInjector inj(plan, {1, 1, 2}, 7);

  auto fx = make_fixture(&inj, 3, std::make_unique<AsyncTiming>(1, 1));
  RecordingListener inner;
  ASSERT_NE(inj.listener(0), nullptr);
  FdOutputTee tee(&inner, inj.listener(0));
  FdOutputListener* l = &tee;
  fx->sys.start();
  fx->sys.run_until(5);

  // A new leader with id 2 is elected: its lowest alive carrier (index 2)
  // is crashed, and the inner listener still observed the event.
  l->on_homega_change(5, HOmegaOut{2, 1});
  EXPECT_FALSE(fx->sys.is_correct(2));
  EXPECT_EQ(inj.stats().crashes_injected, 1u);
  ASSERT_EQ(inner.seen.size(), 1u);
  EXPECT_EQ(inner.seen[0].leader, 2);

  // The same leader re-announced does not consume more budget.
  l->on_homega_change(6, HOmegaOut{2, 1});
  EXPECT_EQ(inj.stats().crashes_injected, 1u);

  // A different leader does; id 1's lowest alive carrier is index 0.
  l->on_homega_change(7, HOmegaOut{1, 2});
  EXPECT_EQ(inj.stats().crashes_injected, 2u);
  EXPECT_FALSE(fx->sys.is_correct(0));

  // Budget exhausted: further changes crash nobody.
  l->on_homega_change(8, HOmegaOut{3, 1});
  EXPECT_EQ(inj.stats().crashes_injected, 2u);
}

TEST(ChaosInjection, NoTriggersReturnsInnerListenerUnchanged) {
  FaultPlan plan;  // empty
  FaultInjector inj(plan, {1, 2}, 7);
  EXPECT_EQ(inj.listener(0), nullptr);
  EXPECT_EQ(inj.listener(1), nullptr);
}

TEST(ChaosInjection, EmptyPlanLeavesCopiesUntouched) {
  FaultPlan plan;
  FaultInjector inj(plan, {1, 2}, 7);
  const CopyVerdict v = inj.on_copy(10, 0, 1, "PING");
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(v.extra_delay, 0);
  EXPECT_EQ(v.duplicates, 0u);
  EXPECT_EQ(inj.stats().copies_dropped, 0u);
}

}  // namespace
}  // namespace hds
