// Causal tracing and the cluster telemetry plane: lineage-id layout,
// backwards chain extraction over recorded event logs, the
// hds-telemetry-v1 delta codec + chunking, the cross-process merger
// (clock alignment, loss accounting, cluster QoS), and the merged
// Chrome-trace exporter's flow arrows.
#include "obs/causal.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"
#include "sim/tracelog.h"

namespace hds::obs {
namespace {

using K = TraceEvent::Kind;

TraceEvent ev(SimTime at, K kind, ProcIndex proc, std::string type = {}, std::uint64_t id = 0,
              std::uint64_t parent = 0) {
  TraceEvent e;
  e.at = at;
  e.kind = kind;
  e.proc = proc;
  e.msg_type = std::move(type);
  e.causal_id = id;
  e.causal_parent = parent;
  return e;
}

std::size_t count_of(const std::string& hay, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = hay.find(needle); pos != std::string::npos;
       pos = hay.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

// ------------------------------------------------------------ lineage ids

TEST(Causal, IdLayoutFoldsNodeIntoHighBits) {
  const std::uint64_t id = causal_node_base(7) | 42;
  EXPECT_EQ(causal_node_of(id), 7u);
  EXPECT_EQ(causal_seq_of(id), 42u);
  EXPECT_EQ(causal_id_str(id), "7:42");
}

TEST(Causal, SessionMintsMonotoneIdsAndFollowsLamportRules) {
  CausalSession s;
  s.base = causal_node_base(3);
  const std::uint64_t a = s.fresh();
  const std::uint64_t b = s.fresh();
  EXPECT_EQ(causal_node_of(a), 3u);
  EXPECT_LT(causal_seq_of(a), causal_seq_of(b));
  EXPECT_EQ(s.tick(), 1u);
  EXPECT_EQ(s.tick(), 2u);
  s.merge(10);  // remote ahead: jump past it
  EXPECT_EQ(s.clock, 11u);
  s.merge(4);  // remote behind: still advances locally
  EXPECT_EQ(s.clock, 12u);
}

// --------------------------------------------------------- chain walking

TEST(Causal, ChainWalksParentsOldestFirst) {
  // start(1) -> broadcast(2) -> deliver on p1 -> broadcast(3) by p1.
  const std::uint64_t root = causal_node_base(0) | 1;
  const std::uint64_t send1 = causal_node_base(0) | 2;
  const std::uint64_t send2 = causal_node_base(0) | 3;
  const std::vector<TraceEvent> log = {
      ev(0, K::kStart, 0, {}, root),
      ev(0, K::kBroadcast, 0, "A", send1, root),
      ev(2, K::kDeliver, 1, "A", send1, root),
      ev(2, K::kBroadcast, 1, "B", send2, send1),
      ev(4, K::kDeliver, 0, "B", send2, send1),
  };
  const auto chain = causal_chain(log, send2);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].kind, K::kStart);
  EXPECT_EQ(chain[1].causal_id, send1);
  EXPECT_EQ(chain[2].causal_id, send2);
  EXPECT_EQ(chain[2].msg_type, "B");
}

TEST(Causal, ChainTruncatesWhereTheRingEvictedTheCreator) {
  const std::uint64_t lost = causal_node_base(0) | 1;  // creator not in the log
  const std::uint64_t kept = causal_node_base(0) | 2;
  const std::vector<TraceEvent> log = {
      ev(5, K::kBroadcast, 0, "A", kept, lost),
      ev(7, K::kDeliver, 1, "A", kept, lost),
  };
  const auto chain = causal_chain(log, kept);
  ASSERT_EQ(chain.size(), 1u);
  EXPECT_EQ(chain[0].causal_id, kept);
}

TEST(Causal, ConsecutiveTimerRearmsCountAsOneLink) {
  // A guard poll spinning: 10 same-process timer links, then the broadcast
  // that armed the first one. max_links=2 must still reach the broadcast.
  std::vector<TraceEvent> log;
  const std::uint64_t send = causal_node_base(0) | 1;
  log.push_back(ev(0, K::kBroadcast, 2, "A", send));
  std::uint64_t prev = send;
  for (int k = 0; k < 10; ++k) {
    const std::uint64_t tid = causal_node_base(0) | (10 + static_cast<std::uint64_t>(k));
    log.push_back(ev(1 + k, K::kTimer, 2, {}, tid, prev));
    prev = tid;
  }
  const auto chain = causal_chain(log, prev, /*max_links=*/2);
  ASSERT_EQ(chain.size(), 11u);  // every event retained...
  EXPECT_EQ(chain.front().kind, K::kBroadcast);  // ...and the spin escaped
  // The formatter collapses the spin to a single line.
  const std::string text = format_causal_chain(chain);
  EXPECT_EQ(count_of(text, "timer"), 1u);
  EXPECT_NE(text.find("x10"), std::string::npos);
}

TEST(Causal, ChainTargetPrefersViolationThenDeliverThenTimer) {
  const std::uint64_t d = causal_node_base(0) | 2;
  const std::uint64_t t = causal_node_base(0) | 3;
  const std::uint64_t v = causal_node_base(0) | 1;
  std::vector<TraceEvent> log = {
      ev(1, K::kDeliver, 0, "A", d),
      ev(2, K::kTimer, 0, {}, t),
  };
  EXPECT_EQ(causal_chain_target(log), d);  // deliver beats the later timer
  log.push_back(ev(3, K::kMonitorViolation, 0, "leader-flap", v));
  EXPECT_EQ(causal_chain_target(log), v);
  EXPECT_EQ(causal_chain_target({ev(2, K::kTimer, 0, {}, t)}), t);
  EXPECT_EQ(causal_chain_target({ev(0, K::kStart, 0)}), 0u);
}

// ------------------------------------------------------ telemetry codec

TelemetryDelta sample_delta() {
  TelemetryDelta d;
  d.node = 1;
  d.id = 7;
  d.seq = 3;
  d.epoch_wall_us = 1'700'000'000'000'000;
  d.hello_done_ms = 12;
  d.dropped = 5;
  // Node index 40 pushes the raw id past 2^53: the JSON string form must
  // survive where a double could not.
  d.events = {
      ev(10, K::kBroadcast, 1, "POLLING", causal_node_base(40) | 9, causal_node_base(40) | 2),
      ev(11, K::kDeliver, 1, "P_REPLY", causal_node_base(2) | 4),
      ev(12, K::kTimer, 1),
  };
  d.metrics_json = "{\"counters\":{}}";
  d.final_flush = true;
  return d;
}

TEST(Telemetry, DeltaRoundTripsThroughJson) {
  const TelemetryDelta d = sample_delta();
  const TelemetryDelta back = telemetry_delta_from_json(telemetry_delta_to_json(d));
  EXPECT_EQ(back.node, d.node);
  EXPECT_EQ(back.id, d.id);
  EXPECT_EQ(back.seq, d.seq);
  EXPECT_EQ(back.final_flush, d.final_flush);
  EXPECT_EQ(back.epoch_wall_us, d.epoch_wall_us);
  EXPECT_EQ(back.hello_done_ms, d.hello_done_ms);
  EXPECT_EQ(back.dropped, d.dropped);
  EXPECT_EQ(back.metrics_json, d.metrics_json);
  ASSERT_EQ(back.events.size(), d.events.size());
  for (std::size_t i = 0; i < d.events.size(); ++i) {
    EXPECT_EQ(back.events[i].at, d.events[i].at);
    EXPECT_EQ(back.events[i].kind, d.events[i].kind);
    EXPECT_EQ(back.events[i].proc, d.events[i].proc);
    EXPECT_EQ(back.events[i].msg_type, d.events[i].msg_type);
    EXPECT_EQ(back.events[i].causal_id, d.events[i].causal_id) << i;
    EXPECT_EQ(back.events[i].causal_parent, d.events[i].causal_parent) << i;
  }
}

TEST(Telemetry, SchemaMismatchAndBadKindsAreRejected) {
  Json j = telemetry_delta_to_json(sample_delta());
  j["schema"] = "not-telemetry";
  EXPECT_THROW((void)telemetry_delta_from_json(j), std::runtime_error);
  Json ok = telemetry_delta_to_json(sample_delta());
  Json bad_ev = Json::object();
  bad_ev["at"] = 1;
  bad_ev["k"] = "no-such-kind";
  Json evs = Json::array();
  evs.push_back(std::move(bad_ev));
  ok["events"] = std::move(evs);
  EXPECT_THROW((void)telemetry_delta_from_json(ok), std::runtime_error);
}

TEST(Telemetry, ChunkingRenumbersSeqAndKeepsFinalOnLastChunkOnly) {
  TelemetryDelta d = sample_delta();  // 3 events, seq 3, final, with metrics
  const auto chunks = chunk_telemetry_delta(d, /*max_events=*/2);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].seq, 3u);
  EXPECT_EQ(chunks[1].seq, 4u);
  EXPECT_EQ(chunks[0].events.size(), 2u);
  EXPECT_EQ(chunks[1].events.size(), 1u);
  EXPECT_FALSE(chunks[0].final_flush);
  EXPECT_TRUE(chunks[1].final_flush);
  EXPECT_TRUE(chunks[0].metrics_json.empty());
  EXPECT_EQ(chunks[1].metrics_json, d.metrics_json);
  // An empty window still announces itself as one chunk.
  d.events.clear();
  const auto empty = chunk_telemetry_delta(d, 2);
  ASSERT_EQ(empty.size(), 1u);
  EXPECT_TRUE(empty[0].final_flush);
}

// ------------------------------------------------------------- merging

TEST(Telemetry, MergerAlignsClocksAndComputesClusterQos) {
  // Node 0's clock epoch is 2000µs earlier than node 1's. A broadcast on
  // node 0 at local t=10ms is delivered on node 1 at local t=9ms — which is
  // 2000 + 9000 - 10000 = 1000µs = 1ms of aligned end-to-end latency.
  const std::uint64_t mid = causal_node_base(0) | 5;
  TelemetryMerger merger;
  TelemetryDelta a;
  a.node = 0;
  a.id = 7;
  a.epoch_wall_us = 10'000;
  a.events = {ev(10, K::kBroadcast, 0, "POLLING", mid)};
  TelemetryDelta b;
  b.node = 1;
  b.id = 7;
  b.seq = 0;
  b.epoch_wall_us = 12'000;
  b.events = {ev(9, K::kDeliver, 1, "POLLING", mid)};
  merger.ingest(a);
  merger.ingest(b);
  EXPECT_EQ(merger.node_count(), 2u);
  const ClusterQos q = merger.cluster_qos();
  EXPECT_EQ(q.broadcasts, 1u);
  EXPECT_EQ(q.deliveries_matched, 1u);
  EXPECT_DOUBLE_EQ(q.latency_ms_mean, 1.0);
  EXPECT_DOUBLE_EQ(q.latency_ms_max, 1.0);
}

TEST(Telemetry, MergerAccountsSequenceGapsAndFinals) {
  TelemetryMerger merger;
  TelemetryDelta d;
  d.node = 2;
  d.seq = 0;
  merger.ingest(d);
  d.seq = 4;  // 1..3 lost in flight
  d.final_flush = true;
  d.dropped = 9;
  merger.ingest(d);
  EXPECT_TRUE(merger.node_final(2));
  EXPECT_FALSE(merger.node_final(0));
  const Json s = merger.summary();
  const Json* node = s.find("nodes")->find("2");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->number_or("deltas", 0), 2.0);
  EXPECT_EQ(node->number_or("lost_deltas", 0), 3.0);
  EXPECT_EQ(node->number_or("trace_dropped", 0), 9.0);
  EXPECT_NE(s.find("cluster_qos"), nullptr);
}

TEST(Telemetry, MergerIgnoresDuplicateDeltasButCountsThem) {
  // A replayed datagram (same sequence number) must not double-append its
  // events, and — crucially — must not count as a fresh delta: before the
  // distinct-sequence accounting, one duplicate could mask one real loss.
  TelemetryMerger merger;
  TelemetryDelta d;
  d.node = 1;
  d.seq = 0;
  d.events = {ev(5, K::kBroadcast, 1, "POLLING", causal_node_base(1) | 1)};
  merger.ingest(d);
  merger.ingest(d);  // duplicate
  d.seq = 2;         // seq 1 lost
  d.events = {ev(8, K::kTimer, 1)};
  merger.ingest(d);
  merger.ingest(d);  // duplicate again

  const auto traces = merger.node_traces();
  ASSERT_EQ(traces.size(), 1u);
  EXPECT_EQ(traces[0].events.size(), 2u);  // one per distinct delta

  const Json s = merger.summary();
  const Json* node = s.find("nodes")->find("1");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->number_or("deltas", 0), 2.0);
  EXPECT_EQ(node->number_or("dup_deltas", 0), 2.0);
  EXPECT_EQ(node->number_or("lost_deltas", 0), 1.0);
  EXPECT_EQ(node->number_or("events", 0), 2.0);
}

TEST(Telemetry, MergerToleratesReorderedDeltas) {
  // Arrival order 2, 0, 1: no gap once all three distinct deltas land, and
  // final/metrics stick no matter which chunk carried them.
  TelemetryMerger merger;
  TelemetryDelta d;
  d.node = 0;
  d.seq = 2;
  d.final_flush = true;
  d.metrics_json = "{}";
  merger.ingest(d);
  d = TelemetryDelta{};
  d.node = 0;
  d.seq = 0;
  merger.ingest(d);
  d.seq = 1;
  merger.ingest(d);
  EXPECT_TRUE(merger.node_final(0));
  const Json summary = merger.summary();  // find() points into it
  const Json* node = summary.find("nodes")->find("0");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->number_or("deltas", 0), 3.0);
  EXPECT_EQ(node->number_or("lost_deltas", 0), 0.0);
  EXPECT_EQ(node->number_or("dup_deltas", 0), 0.0);
}

TEST(Telemetry, AdminPortRidesDeltasAndSurvivesZeroUpdates) {
  TelemetryMerger merger;
  TelemetryDelta d;
  d.node = 3;
  d.seq = 0;
  d.admin_port = 9301;
  // The announcement survives the JSON codec...
  const TelemetryDelta decoded = telemetry_delta_from_json(telemetry_delta_to_json(d));
  EXPECT_EQ(decoded.admin_port, 9301);
  merger.ingest(decoded);
  EXPECT_EQ(merger.node_admin_port(3), 9301);
  // ...and a later delta without the field does not erase it.
  d.seq = 1;
  d.admin_port = 0;
  merger.ingest(d);
  EXPECT_EQ(merger.node_admin_port(3), 9301);
  EXPECT_EQ(merger.node_admin_port(7), 0);  // unseen node
  const Json summary = merger.summary();  // find() points into it
  const Json* node = summary.find("nodes")->find("3");
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(node->number_or("admin_port", 0), 9301.0);
}

// --------------------------------------------------------- merged export

TEST(MergedTrace, EmitsOnePidPerNodeWithCrossProcessFlowArrows) {
  const std::uint64_t mid = causal_node_base(0) | 3;
  NodeTrace n0;
  n0.node = 0;
  n0.id = 7;
  n0.epoch_wall_us = 1000;
  n0.dropped = 2;
  n0.events = {ev(0, K::kStart, 0), ev(5, K::kBroadcast, 0, "POLLING", mid)};
  NodeTrace n1;
  n1.node = 1;
  n1.id = 7;
  n1.epoch_wall_us = 3000;
  n1.events = {ev(4, K::kDeliver, 1, "POLLING", mid)};
  const std::string j = merged_chrome_trace_json({n0, n1}, "unit");
  // Process lanes: metadata names both nodes, events carry their node's pid.
  EXPECT_EQ(count_of(j, "\"process_name\""), 2u);
  EXPECT_NE(j.find("node 0 id=7"), std::string::npos);
  EXPECT_NE(j.find("node 1 id=7"), std::string::npos);
  // The broadcast→deliver pair crosses pids as a flow arrow keyed by the
  // string lineage id.
  EXPECT_EQ(count_of(j, "\"ph\":\"s\""), 1u);
  EXPECT_EQ(count_of(j, "\"ph\":\"f\""), 1u);
  EXPECT_GE(count_of(j, "\"id\":\"0:3\""), 2u);
  // Dropped accounting reaches otherData.
  EXPECT_NE(j.find("\"dropped_events\":2"), std::string::npos);
}

TEST(MergedTrace, RebasesLocalClocksOntoTheSharedTimeline) {
  NodeTrace n0;
  n0.node = 0;
  n0.epoch_wall_us = 500;
  n0.events = {ev(1, K::kStart, 0)};
  NodeTrace n1;
  n1.node = 1;
  n1.epoch_wall_us = 2500;
  n1.events = {ev(1, K::kStart, 1)};
  const std::string j = merged_chrome_trace_json({n0, n1}, "rebase");
  // min epoch is the origin: node 0's t=1ms lands at 1000µs, node 1's at
  // 2000 + 1000 = 3000µs.
  EXPECT_NE(j.find("\"ts\":1000"), std::string::npos);
  EXPECT_NE(j.find("\"ts\":3000"), std::string::npos);
}

}  // namespace
}  // namespace hds::obs
