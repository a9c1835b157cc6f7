// Tests of the QoS analyzer: hand-built trajectories with known
// detection/mistake/leader/quorum behaviour, the metrics projection, the
// JSON projection, and an end-to-end harness run with collect_qos.
#include "obs/qos.h"

#include <gtest/gtest.h>

#include "consensus/harness.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace hds {
namespace {

using obs::Json;
using obs::QosInput;
using obs::QosReport;

// Three homonyms of identifier 7; the last two crash at 10 and 20.
QosInput homonym_input() {
  QosInput in;
  in.gt.ids = {7, 7, 7};
  in.gt.correct = {true, false, false};
  in.crash_at = {-1, 10, 20};
  in.gst = 0;
  in.run_end = 100;
  return in;
}

TEST(QosDetection, PermanentMultiplicityDropsPerCrashOfALabel) {
  QosInput in = homonym_input();
  // Observer 0 drops 7's multiplicity 3 -> 2 at t=18 and 2 -> 1 at t=33:
  // the 1st crash of label 7 (at 10) is detected with latency 8, the 2nd
  // (at 20) with latency 13.
  Trajectory<Multiset<Id>> tr;
  tr.record(0, Multiset<Id>{7, 7, 7});
  tr.record(18, Multiset<Id>{7, 7});
  tr.record(33, Multiset<Id>{7});
  in.trusted = {&tr, nullptr, nullptr};

  const QosReport r = obs::analyze_qos(in);
  ASSERT_EQ(r.detections.size(), 2u);
  EXPECT_EQ(r.detections[0].label, 7);
  EXPECT_EQ(r.detections[0].kth, 1u);
  EXPECT_EQ(r.detections[0].crash_time, 10);
  EXPECT_EQ(r.detections[0].latency, 8);
  EXPECT_EQ(r.detections[1].kth, 2u);
  EXPECT_EQ(r.detections[1].latency, 13);
  EXPECT_EQ(r.detection_time_max, 13);
  EXPECT_DOUBLE_EQ(r.detection_time_mean, 10.5);
  EXPECT_EQ(r.undetected, 0u);
}

TEST(QosDetection, TransientDropIsNotADetection) {
  QosInput in = homonym_input();
  // The multiplicity dips to 1 at t=15 but recovers to 2 at t=25 and stays
  // there: the 1st crash is detected only by the *permanent* drop (t=25,
  // wait — 2 <= 3-1 holds from t=15 on... the recovery to 2 keeps the 1st
  // crash detected but un-detects the 2nd), so crash 2 ends undetected only
  // if the final multiplicity stays above its threshold.
  Trajectory<Multiset<Id>> tr;
  tr.record(0, Multiset<Id>{7, 7, 7});
  tr.record(15, Multiset<Id>{7});      // momentarily suspects both
  tr.record(25, Multiset<Id>{7, 7});   // one comes back; stays forever
  in.trusted = {&tr, nullptr, nullptr};

  const QosReport r = obs::analyze_qos(in);
  ASSERT_EQ(r.detections.size(), 2u);
  // 1st crash (threshold 2): permanently <= 2 from t=15 on -> latency 5.
  EXPECT_EQ(r.detections[0].latency, 5);
  // 2nd crash (threshold 1): mult is 2 at run end -> never detected.
  EXPECT_EQ(r.detections[1].latency, -1);
  EXPECT_EQ(r.undetected, 1u);
  EXPECT_EQ(r.detection_time_max, 5);
}

TEST(QosMistakes, IntervalsWhereACorrectInstanceIsMissing) {
  QosInput in;
  in.gt.ids = {1, 2, 3};
  in.gt.correct = {true, true, true};
  in.crash_at = {-1, -1, -1};
  in.gst = 50;
  in.run_end = 100;
  // Observer 0 wrongly drops id 2 during [60, 75) and again [90, 100).
  Trajectory<Multiset<Id>> tr;
  tr.record(0, Multiset<Id>{1, 2, 3});
  tr.record(60, Multiset<Id>{1, 3});
  tr.record(75, Multiset<Id>{1, 2, 3});
  tr.record(90, Multiset<Id>{1, 3});
  in.trusted = {&tr, nullptr, nullptr};

  const QosReport r = obs::analyze_qos(in);
  ASSERT_EQ(r.mistakes.size(), 1u);
  EXPECT_EQ(r.mistakes[0].intervals, 2u);
  EXPECT_EQ(r.mistakes[0].total_duration, 15 + 10);
  EXPECT_EQ(r.mistakes[0].max_duration, 15);
  EXPECT_EQ(r.mistake_intervals, 2u);
  EXPECT_EQ(r.mistake_duration_max, 15);
  // No crashes: no detection records at all.
  EXPECT_TRUE(r.detections.empty());
  EXPECT_EQ(r.detection_time_max, -1);
}

TEST(QosLeader, FlapsSettleAndConvergence) {
  QosInput in;
  in.gt.ids = {1, 2};
  in.gt.correct = {true, true};
  in.crash_at = {-1, -1};
  in.gst = 100;
  in.run_end = 1000;
  Trajectory<HOmegaOut> a;  // settles on (1,1) after two post-GST flaps
  a.record(0, HOmegaOut{2, 1});
  a.record(150, HOmegaOut{2, 2});  // flap 1 (post-GST)
  a.record(180, HOmegaOut{1, 1});  // flap 2
  Trajectory<HOmegaOut> b;  // settled on (1,1) before GST
  b.record(0, HOmegaOut{1, 1});
  in.homega = {&a, &b};

  const QosReport r = obs::analyze_qos(in);
  ASSERT_EQ(r.leaders.size(), 2u);
  EXPECT_EQ(r.leaders[0].flaps_post_gst, 2u);
  EXPECT_EQ(r.leaders[0].settle_time, 80);  // 180 - gst
  EXPECT_EQ(r.leaders[1].flaps_post_gst, 0u);
  EXPECT_EQ(r.leaders[1].settle_time, 0);
  EXPECT_EQ(r.leader_flaps, 2u);
  EXPECT_EQ(r.leader_settle_max, 80);
  EXPECT_TRUE(r.converged);  // both end on (1,1), and 1 is correct
}

TEST(QosLeader, DisagreeingOrDeadFinalLeaderIsNotConverged) {
  QosInput in;
  in.gt.ids = {1, 2};
  in.gt.correct = {true, false};
  in.crash_at = {-1, 5};
  in.gst = 0;
  in.run_end = 100;
  Trajectory<HOmegaOut> a;
  a.record(0, HOmegaOut{2, 1});  // final leader is the crashed identifier
  in.homega = {&a, nullptr};

  const QosReport r = obs::analyze_qos(in);
  EXPECT_FALSE(r.converged);
}

TEST(QosQuorums, MarginsIncludeSelfPairsAndLivenessWaits) {
  QosInput in;
  in.gt.ids = {1, 2, 3};
  in.gt.correct = {true, true, false};
  in.crash_at = {-1, -1, 10};
  in.gst = 0;
  in.run_end = 50;
  // Observer 0 first holds {1,2,3} (contains the crashed id 3 -> not live),
  // then {1,2} at t=20 (live). Observer 1 holds {2,3} from t=5 on — never
  // within I(Correct) = {1,2}.
  HSigmaSnapshot s0a;
  s0a.quora[Label::of_count(1)] = Multiset<Id>{1, 2, 3};
  HSigmaSnapshot s0b = s0a;
  s0b.quora[Label::of_count(2)] = Multiset<Id>{1, 2};
  Trajectory<HSigmaSnapshot> t0;
  t0.record(0, s0a);
  t0.record(20, s0b);
  HSigmaSnapshot s1;
  s1.quora[Label::of_count(3)] = Multiset<Id>{2, 3};
  Trajectory<HSigmaSnapshot> t1;
  t1.record(5, s1);
  in.hsigma = {&t0, &t1, nullptr};

  const QosReport r = obs::analyze_qos(in);
  // Final quora: observer 0 holds {1,2,3} and {1,2}; observer 1 holds {2,3}.
  // Distinct realized quora: 3. Minimum pairwise margin: |{1,2} ∩ {2,3}| = 1.
  EXPECT_EQ(r.quora_distinct, 3u);
  EXPECT_EQ(r.quorum_margin_min, 1);
  ASSERT_EQ(r.liveness_waits.size(), 2u);  // one per correct observer
  EXPECT_EQ(r.liveness_waits[0], 20);
  EXPECT_EQ(r.liveness_waits[1], -1);
  EXPECT_EQ(r.liveness_wait_max, -1);  // observer 1 never live
  EXPECT_FALSE(r.quorum_margins.empty());
}

TEST(QosEmit, ProjectsIntoRegistrySeries) {
  QosInput in = homonym_input();
  Trajectory<Multiset<Id>> tr;
  tr.record(0, Multiset<Id>{7, 7, 7});
  tr.record(18, Multiset<Id>{7, 7});
  tr.record(33, Multiset<Id>{7});
  in.trusted = {&tr, nullptr, nullptr};
  const QosReport r = obs::analyze_qos(in);

  obs::MetricsRegistry reg;
  obs::emit_qos(r, &reg);
  const obs::Histogram* det = reg.find_histogram("qos_detection_time");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->count(), 2u);
  EXPECT_EQ(det->sum(), 8 + 13);
  ASSERT_NE(reg.find_counter("qos_detection_undetected_total"), nullptr);
  // No HΩ/HΣ family in the input: their series are not created.
  EXPECT_EQ(reg.find_gauge("qos_converged"), nullptr);
  obs::emit_qos(r, nullptr);  // null registry is a no-op
}

TEST(QosJson, RoundTripsThroughTheParser) {
  QosInput in = homonym_input();
  Trajectory<Multiset<Id>> tr;
  tr.record(0, Multiset<Id>{7, 7, 7});
  tr.record(18, Multiset<Id>{7, 7});
  in.trusted = {&tr, nullptr, nullptr};
  const QosReport r = obs::analyze_qos(in);

  const Json j = obs::qos_json(r);
  const Json back = Json::parse(j.dump(2));
  EXPECT_EQ(back, j);
  const Json* det = back.find("detection");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->find("records")->items().size(), 2u);
  EXPECT_EQ(back.find("run_end")->number(), 100.0);
}

TEST(QosEndToEnd, Fig6RunProducesDetectionAndLeaderRecords) {
  Fig6Params p;
  p.ids = ids_unique(4);
  p.crashes = crashes_last_k(4, 1, /*at=*/800);
  p.net.gst = 1000;
  p.seed = 3;
  p.run_for = 4000;
  obs::MetricsRegistry reg;
  p.metrics = &reg;
  p.collect_qos = true;
  const Fig6Result r = run_fig6(p);

  EXPECT_TRUE(r.qos.has_trusted);
  EXPECT_TRUE(r.qos.has_homega);
  EXPECT_FALSE(r.qos.detections.empty());
  EXPECT_FALSE(r.qos.leaders.empty());
  // The one crash is eventually detected by every correct observer.
  EXPECT_EQ(r.qos.undetected, 0u);
  EXPECT_GE(r.qos.detection_time_max, 0);
  EXPECT_TRUE(r.qos.converged);
  const obs::Histogram* det = reg.find_histogram("qos_detection_time");
  ASSERT_NE(det, nullptr);
  EXPECT_EQ(det->count(), 3u);  // 3 correct observers x 1 crash
}

TEST(QosEndToEnd, Fig7RunProducesQuorumMargins) {
  Fig7Params p;
  p.ids = ids_homonymous(5, 2, 1);
  p.crashes = crashes_last_k(5, 2, /*at=*/10, /*stagger=*/2);
  p.steps = 30;
  p.seed = 1;
  p.collect_qos = true;
  const Fig7Result r = run_fig7(p);

  EXPECT_TRUE(r.qos.has_hsigma);
  EXPECT_FALSE(r.qos.quorum_margins.empty());
  // HΣ safety: realized quora intersect.
  EXPECT_GT(r.qos.quorum_margin_min, 0);
  EXPECT_GE(r.qos.liveness_wait_max, 0);  // every correct observer went live
}

}  // namespace
}  // namespace hds
