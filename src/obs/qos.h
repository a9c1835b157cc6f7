// Failure-detector quality-of-service analyzer.
//
// Chen/Toueg-style QoS metrics ("On the quality of service of failure
// detectors") adapted to homonymy: the analyzer consumes the run's ground
// truth (identities, crash schedule, GST) together with the per-process FD
// output trajectories and computes, offline, how *well* the detectors
// tracked reality — not merely whether the paper's eventual properties held
// (that is the spec checkers' job), but how fast and how cleanly.
//
//  - Detection time, per crashed label: with homonyms, the k-th crash among
//    the carriers of identifier x is detected by an observer once its
//    h_trusted multiplicity of x drops *permanently* to at most
//    mult_I(x) - k. The latency of that (observer, label, k) triple is the
//    instant of the permanent drop minus the crash instant; a final
//    multiplicity still above the threshold means the crash was never
//    detected (latency -1).
//  - Mistake rate and duration, for ◇HP̄ outputs: a mistake is any instant
//    at which some correct instance is missing from h_trusted
//    (I(Correct) ⊄ output) — the homonymous counterpart of wrongly
//    suspecting a correct process. Measured after GST as maximal mistake
//    intervals.
//  - HΩ leader stability: output changes after GST (flaps), the instant the
//    output last changed relative to GST (settle time), and whether all
//    correct observers agree on a final (leader, multiplicity) naming a
//    correct label.
//  - HΣ quorum intersection margin: the smallest |q ∩ q'| over realized
//    quorum pairs across correct observers (self-pairs included, so the
//    series is never empty when any quorum exists; 0 would witness an HΣ
//    safety violation). Plus the liveness wait: when each correct observer
//    first held a quorum within I(Correct).
//
// The report is a value type: emit_qos() projects it into a
// MetricsRegistry under qos_* series, qos_json() into a JSON document for
// the report CLI. Like the spec checkers, this is observer-side machinery —
// it reads trajectories after the run and feeds nothing back.
#pragma once

#include <vector>

#include "common/multiset.h"
#include "common/trajectory.h"
#include "common/types.h"
#include "fd/ground_truth.h"
#include "fd/interfaces.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace hds::obs {

struct QosInput {
  GroundTruth gt;
  // Per-process crash instant; -1 for processes that never crash. In a
  // lock-step run the tick of a crash is its step.
  std::vector<SimTime> crash_at;
  // Stabilization reference: detection/mistake/leader metrics are measured
  // from here (the network's GST under partial synchrony, 0 otherwise).
  SimTime gst = 0;
  SimTime run_end = 0;
  // Per-process output trajectories, indexed like gt.ids. A family that the
  // stack does not produce stays empty; individual entries may be null.
  std::vector<const Trajectory<Multiset<Id>>*> trusted;      // ◇HP̄
  std::vector<const Trajectory<HOmegaOut>*> homega;          // HΩ
  std::vector<const Trajectory<HSigmaSnapshot>*> hsigma;     // HΣ
};

// One (observer, crashed label, k-th crash of that label) detection record.
struct QosDetection {
  ProcIndex observer = 0;
  Id label = kBottomId;
  std::size_t kth = 1;          // 1-based among this label's crashes, by time
  SimTime crash_time = 0;
  SimTime latency = -1;         // -1: never permanently detected
};

struct QosMistakes {
  ProcIndex observer = 0;
  std::size_t intervals = 0;    // maximal mistake intervals after GST
  SimTime total_duration = 0;
  SimTime max_duration = 0;
};

struct QosLeader {
  ProcIndex observer = 0;
  std::size_t flaps_post_gst = 0;
  SimTime settle_time = 0;      // last output change relative to GST (>= 0)
  Id final_leader = kBottomId;
  std::size_t final_multiplicity = 0;
};

// Minimum intersection margin over realized quorum pairs of two observers.
struct QosQuorumPair {
  ProcIndex a = 0;
  ProcIndex b = 0;
  std::size_t margin = 0;
};

struct QosReport {
  SimTime gst = 0;
  SimTime run_end = 0;
  bool has_trusted = false;
  bool has_homega = false;
  bool has_hsigma = false;

  std::vector<QosDetection> detections;
  std::vector<QosMistakes> mistakes;
  std::vector<QosLeader> leaders;
  std::vector<QosQuorumPair> quorum_margins;
  std::vector<SimTime> liveness_waits;  // per correct observer; -1 = never

  // Aggregates over the records above (the regression-tracked scalars).
  SimTime detection_time_max = -1;      // -1: no detected crash
  double detection_time_mean = 0;
  std::size_t undetected = 0;
  std::size_t mistake_intervals = 0;
  SimTime mistake_duration_max = 0;
  std::size_t leader_flaps = 0;
  SimTime leader_settle_max = -1;       // -1: no HΩ observer
  bool converged = false;               // all correct observers agree on a
                                        // final correct leader
  std::ptrdiff_t quorum_margin_min = -1;  // -1: no realized quorum pair
  std::size_t quora_distinct = 0;
  SimTime liveness_wait_max = -1;       // -1: some observer never live
};

QosReport analyze_qos(const QosInput& in);

// Projects the report into qos_* series: qos_detection_time /
// qos_liveness_wait (latency_buckets histograms), qos_mistake_duration
// (time_buckets), qos_quorum_margin (size_buckets), counters
// qos_detection_undetected_total / qos_mistake_intervals_total /
// qos_leader_flaps_total, gauges qos_leader_settle_time /
// qos_quorum_margin_min / qos_quora_distinct / qos_converged. Null is a
// no-op.
void emit_qos(const QosReport& r, MetricsRegistry* reg);

// Full report as a JSON object (scalars plus per-record arrays).
Json qos_json(const QosReport& r);

}  // namespace hds::obs
