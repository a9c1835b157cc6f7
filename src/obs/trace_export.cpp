#include "obs/trace_export.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "obs/causal.h"

namespace hds::obs {

namespace {

void json_escape_to(std::ostream& os, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          os << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf] << "0123456789abcdef"[c & 0xf];
        } else {
          os << c;
        }
    }
  }
}

// Event name shown on the timeline: the kind, qualified by the message type
// where one exists ("deliver PH1" reads better than bare "deliver").
std::string event_name(const TraceEvent& e) {
  std::string name = TraceEvent::kind_name(e.kind);
  if (!e.msg_type.empty()) {
    name += ' ';
    name += e.msg_type;
  }
  return name;
}

void causal_str_to(std::ostream& os, std::uint64_t id) {
  os << causal_node_of(id) << ':' << causal_seq_of(id);
}

// One trace record at (pid, tid, ts µs). Plain events stay instants; events
// carrying a lineage id become 1µs duration anchors (flow arrows need an
// enclosing slice to terminate on) with flow companions: a broadcast opens
// the arrow under its lineage id, a delivery closes it — across pids too,
// which is what draws send->recv arrows between process lanes in a merged
// cluster trace.
void write_event_at(std::ostream& os, const TraceEvent& e, std::uint64_t pid, std::uint64_t tid,
                    std::int64_t ts) {
  os << "{\"name\":\"";
  json_escape_to(os, event_name(e));
  os << "\",\"cat\":\"" << TraceEvent::kind_name(e.kind);
  if (e.causal_id == 0) {
    os << "\",\"ph\":\"i\",\"s\":\"t\"";
  } else {
    os << "\",\"ph\":\"X\",\"dur\":1";
  }
  os << ",\"ts\":" << ts << ",\"pid\":" << pid << ",\"tid\":" << tid;
  if (!e.msg_type.empty() || e.causal_id != 0) {
    os << ",\"args\":{";
    bool comma = false;
    if (!e.msg_type.empty()) {
      os << "\"type\":\"";
      json_escape_to(os, e.msg_type);
      os << '"';
      comma = true;
    }
    if (e.causal_id != 0) {
      if (comma) os << ',';
      os << "\"causal\":\"";
      causal_str_to(os, e.causal_id);
      os << '"';
      if (e.causal_parent != 0) {
        os << ",\"parent\":\"";
        causal_str_to(os, e.causal_parent);
        os << '"';
      }
    }
    os << '}';
  }
  os << '}';
  // Lineage ids can exceed 2^53 (node index in the high bits), so flow ids
  // go out as strings — the trace importers hash them.
  if (e.causal_id != 0 && e.kind == TraceEvent::Kind::kBroadcast) {
    os << ",\n{\"name\":\"msg\",\"cat\":\"causal\",\"ph\":\"s\",\"id\":\"";
    causal_str_to(os, e.causal_id);
    os << "\",\"ts\":" << ts << ",\"pid\":" << pid << ",\"tid\":" << tid << '}';
  }
  if (e.causal_id != 0 && e.kind == TraceEvent::Kind::kDeliver) {
    os << ",\n{\"name\":\"msg\",\"cat\":\"causal\",\"ph\":\"f\",\"bp\":\"e\",\"id\":\"";
    causal_str_to(os, e.causal_id);
    os << "\",\"ts\":" << ts << ",\"pid\":" << pid << ",\"tid\":" << tid << '}';
  }
}

}  // namespace

std::string chrome_trace_json(const std::vector<TraceEvent>& events, const TraceExportMeta& meta) {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Metadata: name the process row and one thread row per simulated process.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,"
        "\"args\":{\"name\":\"hds run\"}}";
  first = false;
  for (std::size_t i = 0; i < meta.ids.size(); ++i) {
    os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << i
       << ",\"args\":{\"name\":\"p" << i << " id=" << meta.ids[i] << "\"}}";
  }
  for (const TraceEvent& e : events) {
    if (!first) os << ",\n";
    first = false;
    write_event_at(os, e, 0, e.proc, static_cast<std::int64_t>(e.at));
  }
  os << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"event_count\":" << events.size()
     << ",\"dropped_events\":" << meta.dropped << ",\"label\":\"";
  json_escape_to(os, meta.label);
  os << "\"}}\n";
  return os.str();
}

std::string trace_jsonl(const std::vector<TraceEvent>& events, const TraceExportMeta& meta) {
  std::ostringstream os;
  // Header line carries the run-level accounting so a stream consumer can
  // tell a partial window from a complete one.
  os << "{\"meta\":{\"event_count\":" << events.size() << ",\"dropped_events\":" << meta.dropped
     << ",\"label\":\"";
  json_escape_to(os, meta.label);
  os << "\"}}\n";
  for (const TraceEvent& e : events) {
    os << "{\"at\":" << e.at << ",\"kind\":\"" << TraceEvent::kind_name(e.kind)
       << "\",\"proc\":" << e.proc;
    if (!e.msg_type.empty()) {
      os << ",\"type\":\"";
      json_escape_to(os, e.msg_type);
      os << '"';
    }
    if (e.causal_id != 0) {
      os << ",\"causal\":\"";
      causal_str_to(os, e.causal_id);
      os << '"';
      if (e.causal_parent != 0) {
        os << ",\"parent\":\"";
        causal_str_to(os, e.causal_parent);
        os << '"';
      }
    }
    os << "}\n";
  }
  return os.str();
}

std::string merged_chrome_trace_json(const std::vector<NodeTrace>& nodes,
                                     const std::string& label) {
  std::ostringstream os;
  // Clock alignment: the earliest node epoch becomes t = 0 of the merged
  // timeline; every node's local milliseconds are offset by how much later
  // its clock started.
  std::int64_t min_epoch = 0;
  if (!nodes.empty()) {
    min_epoch = nodes.front().epoch_wall_us;
    for (const NodeTrace& nt : nodes) min_epoch = std::min(min_epoch, nt.epoch_wall_us);
  }
  os << "{\"traceEvents\":[\n";
  bool first = true;
  std::size_t event_count = 0;
  std::uint64_t dropped = 0;
  for (const NodeTrace& nt : nodes) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << nt.node
       << ",\"tid\":0,\"args\":{\"name\":\"node " << nt.node << " id=" << nt.id << "\"}}";
    os << ",\n{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" << nt.node
       << ",\"tid\":0,\"args\":{\"sort_index\":" << nt.node << "}}";
  }
  for (const NodeTrace& nt : nodes) {
    const std::int64_t offset_us = nt.epoch_wall_us - min_epoch;
    for (const TraceEvent& e : nt.events) {
      os << ",\n";
      write_event_at(os, e, nt.node, e.proc,
                     offset_us + static_cast<std::int64_t>(e.at) * 1000);
      ++event_count;
    }
    dropped += nt.dropped;
  }
  os << "\n],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{\"event_count\":" << event_count
     << ",\"dropped_events\":" << dropped << ",\"node_count\":" << nodes.size()
     << ",\"dropped_by_node\":[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i != 0) os << ',';
    os << nodes[i].dropped;
  }
  os << "],\"label\":\"";
  json_escape_to(os, label);
  os << "\"}}\n";
  return os.str();
}

}  // namespace hds::obs
