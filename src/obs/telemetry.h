// Cluster telemetry plane: the wire schema nodes use to stream trace/metric
// deltas to the launcher, and the merger that folds per-node streams into
// one cluster view.
//
// Transport is JSON datagrams ("hds-telemetry-v1") over the launcher's
// admin UDP channel — fire-and-forget, like the data plane itself. A node
// sends one delta right after the HELLO barrier (announcing its wall-clock
// epoch), periodic deltas while running (each carrying the trace events
// recorded since the last one, chunked so a delta fits a datagram), and a
// final flush (carrying the metrics snapshot) before exiting. Loss is
// tolerated: deltas carry per-node sequence numbers, so the merger can
// report how many went missing, and the trace ring's own dropped() count
// rides along.
//
// The merger rebases each node's local millisecond timestamps onto a shared
// timeline using the announced epochs (aligned_us = (epoch_wall_us -
// min(epoch_wall_us)) + at*1000), produces the NodeTrace set the merged
// Chrome exporter consumes, and computes cluster QoS — end-to-end detection
// latency — by matching each broadcast's lineage id against the deliveries
// that carried it on other nodes.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/json.h"
#include "obs/trace_export.h"
#include "sim/tracelog.h"

namespace hds::obs {

inline constexpr const char* kTelemetrySchema = "hds-telemetry-v1";

struct TelemetryDelta {
  ProcIndex node = 0;              // cluster index of the sender
  Id id = 0;                       // its homonymous identity
  std::uint64_t seq = 0;           // per-node delta sequence number (from 0)
  bool final_flush = false;        // last delta this node will send
  std::int64_t epoch_wall_us = 0;  // wall clock (µs since Unix epoch) at local t = 0
  SimTime hello_done_ms = -1;      // local time the HELLO barrier completed; -1 unknown
  std::uint16_t admin_port = 0;    // node's hds-admin-v1 UDP port; 0 = none announced
  std::uint64_t dropped = 0;       // trace-ring evictions so far at this node
  std::vector<TraceEvent> events;  // events recorded since the previous delta
  std::string metrics_json;        // metrics snapshot; only on the final flush
};

[[nodiscard]] Json telemetry_delta_to_json(const TelemetryDelta& d);
// Throws std::runtime_error on a schema mismatch or malformed fields.
[[nodiscard]] TelemetryDelta telemetry_delta_from_json(const Json& j);

// Splits an oversized delta into datagram-sized chunks of at most
// `max_events` events each, renumbering seq from `d.seq` and keeping
// final_flush/metrics_json on the last chunk only. An empty event window
// still yields one chunk (epoch announcements and final flushes have no
// events of their own).
[[nodiscard]] std::vector<TelemetryDelta> chunk_telemetry_delta(const TelemetryDelta& d,
                                                               std::size_t max_events = 200);

// Cluster-aggregated QoS over the merged, clock-aligned trace: wall-clock
// latency from each broadcast to the deliveries of the same lineage id.
struct ClusterQos {
  std::uint64_t broadcasts = 0;          // stamped broadcasts seen
  std::uint64_t deliveries_matched = 0;  // deliveries matched to a seen broadcast
  double latency_ms_mean = 0;
  double latency_ms_p50 = 0;
  double latency_ms_p99 = 0;
  double latency_ms_max = 0;
};

class TelemetryMerger {
 public:
  // Folds one delta into the per-node stream state. Out-of-order deltas are
  // tolerated (events append in arrival order; the merged exporter and QoS
  // sort by aligned time where it matters). A duplicate sequence number —
  // a replayed datagram — is counted but its events are NOT appended again,
  // so duplicates neither double-count trace events nor mask real losses in
  // the gap accounting.
  void ingest(const TelemetryDelta& d);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] bool node_final(ProcIndex node) const;

  // Last admin port this node announced; 0 when none has been. The launcher
  // uses these to publish admin_endpoints.json for hds_top.
  [[nodiscard]] std::uint16_t node_admin_port(ProcIndex node) const;

  // Per-node windows for merged_chrome_trace, ascending node index.
  [[nodiscard]] std::vector<NodeTrace> node_traces() const;

  [[nodiscard]] ClusterQos cluster_qos() const;

  // Cluster summary for the hds_report/hds_cluster JSON: per-node delta
  // accounting (deltas received, sequence gaps, trace drops, final seen,
  // hello_done_ms, metrics) plus the QoS block.
  [[nodiscard]] Json summary() const;

 private:
  struct PerNode {
    Id id = 0;
    std::int64_t epoch_wall_us = 0;
    SimTime hello_done_ms = -1;
    std::uint16_t admin_port = 0;
    std::uint64_t dropped = 0;
    bool got_final = false;
    std::set<std::uint64_t> seen_seqs;  // distinct sequence numbers ingested
    std::uint64_t dup_deltas = 0;       // replayed datagrams (seq seen before)
    std::uint64_t max_seq = 0;          // highest sequence number seen
    std::uint64_t restarts = 0;         // epoch bumps seen (crash-restart)
    std::uint64_t stale_deltas = 0;     // late datagrams from a dead incarnation
    std::string metrics_json;
    std::vector<TraceEvent> events;
  };
  std::map<ProcIndex, PerNode> nodes_;
};

}  // namespace hds::obs
