// Tests of the online property monitors: per-rule classification driven
// directly through the listener interface, silence on clean runs, an
// adversarial simulated schedule triggering the expected rules, TraceLog /
// metrics mirroring, and a real-concurrency smoke test on in-process
// NetSystems.
#include "obs/monitor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "consensus/harness.h"
#include "fd/impl/homega_heartbeat.h"
#include "sim/tracelog.h"
#include "support/net_cluster.h"

namespace hds {
namespace {

using obs::MonitorConfig;
using obs::MonitorEvent;
using obs::OnlineMonitor;

// ids {1,2,3}; process 2 (id 3) crashed. I(Correct) = {1,2}.
MonitorConfig base_config(SimTime watch_from = 100) {
  MonitorConfig cfg;
  cfg.gt.ids = {1, 2, 3};
  cfg.gt.correct = {true, true, false};
  cfg.watch_from = watch_from;
  return cfg;
}

TEST(Monitor, SuspectCorrectVsLateChange) {
  OnlineMonitor mon(base_config());
  // Missing the correct id 2: a wrong suspicion.
  mon.listener(0)->on_trusted_change(150, Multiset<Id>{1, 3});
  // Covers every correct instance: churn, but only a warning.
  mon.listener(1)->on_trusted_change(160, Multiset<Id>{1, 2, 3});

  const auto evs = mon.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].severity, MonitorEvent::Severity::kViolation);
  EXPECT_EQ(evs[0].rule, "suspect-correct");
  EXPECT_EQ(evs[0].at, 150);
  EXPECT_EQ(evs[0].proc, 0u);
  EXPECT_EQ(evs[1].severity, MonitorEvent::Severity::kWarning);
  EXPECT_EQ(evs[1].rule, "late-change");
  EXPECT_EQ(mon.violation_count(), 1u);
  EXPECT_EQ(mon.warning_count(), 1u);
}

TEST(Monitor, EventualRulesAreGatedByWatchFrom) {
  OnlineMonitor mon(base_config(100));
  mon.listener(0)->on_trusted_change(99, Multiset<Id>{3});           // pre-window
  mon.listener(0)->on_homega_change(99, HOmegaOut{3, 1});            // pre-window
  mon.listener(0)->on_sigma_change(99, Multiset<Id>{3});             // pre-window
  EXPECT_TRUE(mon.events().empty());
  // At the boundary the window is open (at >= watch_from).
  mon.listener(0)->on_trusted_change(100, Multiset<Id>{3});
  EXPECT_EQ(mon.events().size(), 1u);
}

TEST(Monitor, LeaderFlapAndDeadLeader) {
  OnlineMonitor mon(base_config());
  // Any post-window change flaps; a leader no correct process carries also
  // warns.
  mon.listener(2)->on_homega_change(200, HOmegaOut{3, 1});
  auto by_rule = mon.counts_by_rule();
  EXPECT_EQ(by_rule["leader-flap"], 1u);
  EXPECT_EQ(by_rule["dead-leader"], 1u);
  // A correct leader only flaps.
  mon.listener(2)->on_homega_change(210, HOmegaOut{1, 1});
  by_rule = mon.counts_by_rule();
  EXPECT_EQ(by_rule["leader-flap"], 2u);
  EXPECT_EQ(by_rule["dead-leader"], 1u);
}

TEST(Monitor, QuorumSafetyRulesIgnoreTheGate) {
  MonitorConfig cfg = base_config(1'000'000);  // gate far in the future
  OnlineMonitor mon(cfg);

  const auto snap_with = [](std::size_t tag, Multiset<Id> q) {
    HSigmaSnapshot s;
    s.quora[Label::of_count(tag)] = std::move(q);
    return s;
  };
  // First quorum: only its self-pair (margin 3) — silent.
  mon.listener(0)->on_hsigma_change(10, snap_with(1, Multiset<Id>{1, 2, 3}));
  EXPECT_TRUE(mon.events().empty());
  // Intersects the first in exactly one instance: margin warning.
  mon.listener(1)->on_hsigma_change(20, snap_with(2, Multiset<Id>{3, 4}));
  // Disjoint from the first: an HΣ safety violation.
  mon.listener(1)->on_hsigma_change(30, snap_with(3, Multiset<Id>{5, 6}));

  const auto evs = mon.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].rule, "quorum-margin");
  EXPECT_EQ(evs[0].severity, MonitorEvent::Severity::kWarning);
  EXPECT_EQ(evs[1].rule, "quorum-disjoint");
  EXPECT_EQ(evs[1].severity, MonitorEvent::Severity::kViolation);
  // A quorum already seen is not re-judged.
  mon.listener(2)->on_hsigma_change(40, snap_with(4, Multiset<Id>{5, 6}));
  EXPECT_EQ(mon.events().size(), 2u);
}

TEST(Monitor, SigmaTrustCrashed) {
  OnlineMonitor mon(base_config());
  mon.listener(1)->on_sigma_change(150, Multiset<Id>{1, 2});  // within Correct
  EXPECT_TRUE(mon.events().empty());
  mon.listener(1)->on_sigma_change(160, Multiset<Id>{1, 3});  // trusts crashed 3
  const auto evs = mon.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].rule, "sigma-trust-crashed");
  EXPECT_EQ(evs[0].severity, MonitorEvent::Severity::kViolation);
}

TEST(Monitor, BadListenerIndexThrows) {
  OnlineMonitor mon(base_config());
  EXPECT_NE(mon.listener(2), nullptr);
  EXPECT_THROW((void)mon.listener(3), std::out_of_range);
}

TEST(Monitor, MirrorsIntoTraceLogAndMetrics) {
  TraceLog trace(16);
  obs::MetricsRegistry reg;
  MonitorConfig cfg = base_config();
  cfg.trace = &trace;
  cfg.metrics = &reg;
  OnlineMonitor mon(cfg);
  mon.listener(0)->on_trusted_change(150, Multiset<Id>{1, 3});
  mon.listener(0)->on_trusted_change(160, Multiset<Id>{1, 2, 3});

  const auto evs = trace.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].kind, TraceEvent::Kind::kMonitorViolation);
  EXPECT_EQ(evs[0].at, 150);
  EXPECT_EQ(evs[0].msg_type.rfind("suspect-correct: ", 0), 0u);
  EXPECT_EQ(evs[1].kind, TraceEvent::Kind::kMonitorWarn);
  EXPECT_STREQ(TraceEvent::kind_name(evs[0].kind), "monitor-violation");
  EXPECT_STREQ(TraceEvent::kind_name(evs[1].kind), "monitor-warn");

  const auto* v = reg.find_counter("monitor_events_total",
                                   {{"rule", "suspect-correct"}, {"severity", "violation"}});
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->value(), 1u);
  EXPECT_EQ(reg.counter_total("monitor_events_total"), 2u);
}

TEST(Monitor, SilentOnACleanRun) {
  // No crashes, benign network: everything settles long before watch_from,
  // so a correctly gated monitor reports nothing at all.
  Fig6Params p;
  p.ids = ids_unique(3);
  p.net.gst = 0;
  p.net.pre_gst_loss = 0.0;
  p.net.pre_gst_max_delay = 1;
  p.seed = 7;
  p.run_for = 3000;
  obs::MonitorConfig mc;
  mc.gt = ground_truth_of(p.ids, p.crashes);
  mc.watch_from = 1500;
  OnlineMonitor mon(mc);
  p.observers = {&mon};
  const Fig6Result r = run_fig6(p);
  ASSERT_TRUE(r.ohp_check.ok) << r.ohp_check.detail;
  EXPECT_EQ(mon.violation_count(), 0u);
  EXPECT_EQ(mon.warning_count(), 0u);
  EXPECT_TRUE(mon.events().empty());
}

TEST(Monitor, AdversarialScheduleTriggersTheExpectedRules) {
  // Watch from t = 0 over a lossy pre-GST network with two crashes: the
  // pre-stabilization churn is fully visible to the monitor.
  Fig6Params p;
  p.ids = ids_unique(5);
  p.crashes = crashes_last_k(5, 2, /*at=*/800, /*stagger=*/50);
  p.net.gst = 2500;
  p.net.pre_gst_loss = 0.5;
  p.net.pre_gst_max_delay = 40;
  p.seed = 11;
  p.run_for = 6000;
  obs::MonitorConfig mc;
  mc.gt = ground_truth_of(p.ids, p.crashes);
  mc.watch_from = 0;
  OnlineMonitor mon(mc);
  p.observers = {&mon};
  const Fig6Result r = run_fig6(p);
  ASSERT_TRUE(r.ohp_check.ok) << r.ohp_check.detail;

  const auto by_rule = mon.counts_by_rule();
  // The heavy pre-GST loss makes every correct observer wrongly suspect
  // somebody at least once, and the leader must move at least once (initial
  // election plus crash of high ids).
  EXPECT_GT(by_rule.count("suspect-correct"), 0u);
  EXPECT_GT(mon.counts_by_rule()["leader-flap"], 0u);
  // The crashes shrink h_trusted without wrong suspicion: late-change churn.
  EXPECT_GT(by_rule.count("late-change"), 0u);
  EXPECT_GT(mon.violation_count(), 0u);
  // Every event carries a proc index within range and a non-empty detail.
  for (const MonitorEvent& e : mon.events()) {
    EXPECT_LT(e.proc, 5u);
    EXPECT_FALSE(e.detail.empty());
  }
  EXPECT_EQ(mon.dropped(), 0u);
}

TEST(Monitor, WorksAcrossThreadsOnNetSystems) {
  using namespace std::chrono_literals;
  // Three heartbeat HΩ nodes on in-process NetSystems sharing one monitor
  // with watch_from = 0: electing id 1 is an output change at the two nodes
  // that did not start as leader (node 1 starts with itself and never
  // changes), delivered from three node threads through the same listener
  // API.
  obs::MonitorConfig mc;
  mc.gt.ids = {1, 2, 3};
  mc.gt.correct = {true, true, true};
  mc.watch_from = 0;
  OnlineMonitor mon(mc);
  testing::NetCluster c(mc.gt.ids);
  for (ProcIndex i = 0; i < 3; ++i) {
    auto fd = std::make_unique<HOmegaHeartbeat>(/*period=*/5);
    fd->set_output_listener(mon.listener(i));
    c.sys[i]->set_process(std::move(fd));
  }
  ASSERT_TRUE(c.barrier());
  c.start_all();
  ASSERT_TRUE(c.sys[0]->wait_for([&] { return mon.violation_count() >= 2; }, 5000ms));
  for (auto& s : c.sys) s->stop();
  const auto by_rule = mon.counts_by_rule();
  EXPECT_GE(by_rule.at("leader-flap"), 2u);
}

}  // namespace
}  // namespace hds
