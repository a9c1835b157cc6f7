// Trace exporters: turn a recorded TraceLog window into
//  - Chrome trace-event JSON ("trace.json"), loadable in chrome://tracing
//    and Perfetto: one pid for the run, one tid per process (named with its
//    homonymous identifier), instant events per trace record, and
//    dropped-event accounting in otherData. Events that carry a lineage id
//    become 1µs duration anchors with flow begin/end companions, so every
//    broadcast draws an arrow to each of its deliveries;
//  - a JSONL stream (one event object per line), the machine-friendly form
//    for ad-hoc analysis (jq, pandas);
//  - a merged multi-process Chrome trace (one pid per cluster node, local
//    millisecond clocks rebased onto a shared wall-clock timeline), the
//    output of the hds_cluster telemetry plane.
//
// Exporters work from the materialized event vector (TraceLog::events() or
// ConsensusRunResult::trace_events) so they can run after the System that
// produced the log is gone.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "sim/tracelog.h"

namespace hds::obs {

struct TraceExportMeta {
  std::vector<Id> ids;         // ids[i] names thread i; may be empty
  std::uint64_t dropped = 0;   // ring evictions (TraceLog::dropped())
  std::string label;           // free-form run description
};

// Chrome trace-event format (JSON object form). SimTime ticks map 1:1 to
// microseconds — the unit chrome://tracing displays natively.
[[nodiscard]] std::string chrome_trace_json(const std::vector<TraceEvent>& events,
                                            const TraceExportMeta& meta);
// One JSON object per line: {"at":..., "kind":"...", "proc":..., "type":"..."}.
[[nodiscard]] std::string trace_jsonl(const std::vector<TraceEvent>& events,
                                      const TraceExportMeta& meta);

// One cluster node's contribution to a merged trace: its local event window
// plus the wall-clock instant its local clock started (NetSystem::
// epoch_wall_us), which anchors the rebase onto the shared timeline.
struct NodeTrace {
  ProcIndex node = 0;               // cluster index; becomes the merged pid
  Id id = 0;                        // homonymous identity (lane label)
  std::int64_t epoch_wall_us = 0;   // wall clock at local t = 0
  std::uint64_t dropped = 0;        // ring evictions at this node
  std::vector<TraceEvent> events;   // `at` in local milliseconds
};

// Merged cluster trace: one Chrome pid per node, event timestamps rebased to
// `(epoch_wall_us - min(epoch_wall_us)) + at*1000` µs, flow arrows crossing
// process lanes wherever a lineage id was broadcast on one node and
// delivered on another.
[[nodiscard]] std::string merged_chrome_trace_json(const std::vector<NodeTrace>& nodes,
                                                   const std::string& label);

}  // namespace hds::obs
