// Streaming window-QoS estimator: O(1)-per-event sliding-window versions of
// the post-hoc QoS metrics, fed from FdOutputListener change sites.
#include "obs/window_qos.h"

#include <gtest/gtest.h>

#include "fd/output_hooks.h"
#include "obs/metrics.h"

namespace hds::obs {
namespace {

Multiset<Id> ms(std::initializer_list<Id> ids) {
  Multiset<Id> m;
  for (const Id id : ids) m.insert(id);
  return m;
}

WindowQosConfig base_cfg(std::vector<Id> ids, std::vector<bool> correct,
                         std::vector<SimTime> crash_at = {}) {
  WindowQosConfig cfg;
  cfg.gt.ids = std::move(ids);
  cfg.gt.correct = std::move(correct);
  cfg.crash_at = std::move(crash_at);
  cfg.width = 100;
  cfg.windows = 4;
  return cfg;
}

TEST(WindowQos, DetectionLatencyFromFirstDrop) {
  WindowQos wq(base_cfg({1, 2, 3}, {true, false, true}, {-1, 100, -1}));
  // Before the crash instant nothing is detectable.
  wq.listener(0)->on_trusted_change(50, ms({1, 2, 3}));
  EXPECT_EQ(wq.stats().detections, 0u);
  // First output missing the crashed identifier after its crash = detection.
  wq.listener(0)->on_trusted_change(150, ms({1, 3}));
  const WindowQosStats s = wq.stats();
  EXPECT_EQ(s.detections, 1u);
  EXPECT_DOUBLE_EQ(s.detection_latency_mean, 50.0);
  EXPECT_EQ(s.detection_latency_max, 50);
  // Re-reporting the same deficit is not a second detection.
  wq.listener(0)->on_trusted_change(200, ms({1, 3}));
  EXPECT_EQ(wq.stats().detections, 1u);
}

TEST(WindowQos, HomonymousDeficitCapsDetections) {
  // Two processes share identifier 1; one crashes. As long as the observer
  // still trusts two copies there is no observable deficit — homonymy hides
  // the crash until a copy actually drops.
  WindowQos wq(base_cfg({1, 1, 2}, {true, false, true}, {-1, 100, -1}));
  wq.listener(0)->on_trusted_change(150, ms({1, 1, 2}));
  EXPECT_EQ(wq.stats().detections, 0u);
  wq.listener(0)->on_trusted_change(200, ms({1, 2}));
  const WindowQosStats s = wq.stats();
  EXPECT_EQ(s.detections, 1u);
  EXPECT_EQ(s.detection_latency_max, 100);
}

TEST(WindowQos, MistakeIntervalOpensAndCloses) {
  WindowQos wq(base_cfg({1, 2, 3}, {true, true, true}));
  wq.listener(0)->on_trusted_change(100, ms({1, 3}));  // drops correct id 2
  WindowQosStats s = wq.stats();
  EXPECT_EQ(s.mistake_intervals, 1u);
  EXPECT_EQ(s.mistakes_open, 1u);
  EXPECT_EQ(s.mistake_time, 0);
  wq.listener(0)->on_trusted_change(180, ms({1, 2, 3}));
  s = wq.stats();
  EXPECT_EQ(s.mistake_intervals, 1u);
  EXPECT_EQ(s.mistakes_open, 0u);
  EXPECT_EQ(s.mistake_time, 80);
}

TEST(WindowQos, SigmaOutputSharesTheMistakeRule) {
  WindowQos wq(base_cfg({1, 2}, {true, true}));
  wq.listener(1)->on_sigma_change(40, ms({1}));
  EXPECT_EQ(wq.stats().mistakes_open, 1u);
}

TEST(WindowQos, HomegaFlapsCountChangesAfterFirstOutput) {
  WindowQos wq(base_cfg({1, 2}, {true, true}));
  FdOutputListener* l = wq.listener(0);
  l->on_homega_change(10, HOmegaOut{1, 1});  // first output: not a flap
  l->on_homega_change(20, HOmegaOut{2, 1});  // flap
  l->on_homega_change(30, HOmegaOut{2, 1});  // unchanged: not a flap
  l->on_homega_change(40, HOmegaOut{2, 2});  // multiplicity change: flap
  EXPECT_EQ(wq.stats().homega_flaps, 2u);
}

TEST(WindowQos, QuorumMarginTracksMinPairwiseIntersection) {
  WindowQos wq(base_cfg({1, 2, 3}, {true, true, true}));
  HSigmaSnapshot snap;
  snap.quora[Label::of_text("a")] = ms({1, 2});
  wq.listener(0)->on_hsigma_change(10, snap);
  // Lone quorum: the self-pair margin is its own size.
  EXPECT_EQ(wq.stats().quorum_margin_min, 2);
  HSigmaSnapshot snap2;
  snap2.quora[Label::of_text("b")] = ms({2, 3});
  wq.listener(1)->on_hsigma_change(20, snap2);
  // {1,2} vs {2,3} share only one element.
  EXPECT_EQ(wq.stats().quorum_margin_min, 1);
  // Re-announcing an already-seen quorum changes nothing.
  wq.listener(2)->on_hsigma_change(30, snap2);
  EXPECT_EQ(wq.stats().quorum_margin_min, 1);
}

TEST(WindowQos, RingAgesOutOldSubWindows) {
  WindowQos wq(base_cfg({1, 2}, {true, true}));  // width 100, 4 windows
  wq.listener(0)->on_homega_change(50, HOmegaOut{1, 1});
  EXPECT_EQ(wq.stats().events, 1u);
  // A jump past the whole covered span recycles every sub-window.
  wq.listener(0)->on_homega_change(1000, HOmegaOut{2, 1});
  const WindowQosStats s = wq.stats();
  EXPECT_EQ(s.events, 1u);
  // The flap survives: flap state is per-observer, not per-window.
  EXPECT_EQ(s.homega_flaps, 1u);
  EXPECT_EQ(s.window_end, 1100);
}

TEST(WindowQos, StragglerClampsIntoOldestLiveSubWindow) {
  WindowQos wq(base_cfg({1, 2}, {true, true}));
  wq.listener(0)->on_homega_change(950, HOmegaOut{1, 1});  // sub-window 9
  // A timestamp far in the past (clock skew between nodes) must neither crash
  // nor resurrect a recycled slot; it lands in the oldest live sub-window.
  wq.listener(1)->on_homega_change(100, HOmegaOut{1, 1});
  const WindowQosStats s = wq.stats();
  EXPECT_EQ(s.events, 2u);
  EXPECT_EQ(s.window_end, 1000);
  const Json j = wq.json();
  ASSERT_EQ(j.find("events")->items().size(), 4u);
  EXPECT_EQ(j.find("events")->items()[0].integer(), 1);  // clamped straggler
  EXPECT_EQ(j.find("events")->items()[3].integer(), 1);
}

TEST(WindowQos, JsonSeriesRunOldestFirst) {
  WindowQos wq(base_cfg({1, 2}, {true, true}));
  wq.listener(0)->on_homega_change(50, HOmegaOut{1, 1});
  wq.listener(0)->on_homega_change(150, HOmegaOut{2, 1});
  wq.listener(0)->on_homega_change(160, HOmegaOut{1, 1});
  const Json j = wq.json();
  EXPECT_EQ(j.number_or("window_end", 0), 200.0);
  ASSERT_EQ(j.find("events")->items().size(), 2u);
  EXPECT_EQ(j.find("events")->items()[0].integer(), 1);
  EXPECT_EQ(j.find("events")->items()[1].integer(), 2);
  EXPECT_EQ(j.find("flaps")->items()[1].integer(), 2);
}

TEST(WindowQos, GaugesLandInTheRegistryOnStats) {
  MetricsRegistry reg;
  WindowQosConfig cfg = base_cfg({1, 2}, {true, true});
  cfg.metrics = &reg;
  WindowQos wq(cfg);
  wq.listener(0)->on_homega_change(10, HOmegaOut{1, 1});
  wq.listener(0)->on_homega_change(20, HOmegaOut{2, 1});
  (void)wq.stats();
  const MetricsSnapshot snap = reg.snapshot();
  bool saw_events = false;
  bool saw_flaps = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "qos_window_events") {
      saw_events = true;
      EXPECT_EQ(g.value, 2);
    }
    if (g.name == "qos_window_homega_flaps") {
      saw_flaps = true;
      EXPECT_EQ(g.value, 1);
    }
  }
  EXPECT_TRUE(saw_events);
  EXPECT_TRUE(saw_flaps);
}

TEST(WindowQos, TeeFansOutToMonitorAndEstimator) {
  // The harness shares one listener slot between the monitor and the
  // estimator via FdOutputTee; both sides must see every change.
  WindowQos a(base_cfg({1, 2}, {true, true}));
  WindowQos b(base_cfg({1, 2}, {true, true}));
  FdOutputTee tee(a.listener(0), b.listener(0));
  tee.on_homega_change(10, HOmegaOut{1, 1});
  tee.on_trusted_change(20, ms({1, 2}));
  EXPECT_EQ(a.stats().events, 2u);
  EXPECT_EQ(b.stats().events, 2u);
}

TEST(WindowQos, RejectsDegenerateConfig) {
  WindowQosConfig cfg = base_cfg({1}, {true});
  cfg.width = 0;
  EXPECT_THROW(WindowQos{cfg}, std::invalid_argument);
  WindowQosConfig cfg2 = base_cfg({1}, {true});
  cfg2.windows = 0;
  EXPECT_THROW(WindowQos{cfg2}, std::invalid_argument);
  WindowQos wq(base_cfg({1}, {true}));
  EXPECT_THROW(wq.listener(1), std::out_of_range);
}

}  // namespace
}  // namespace hds::obs
