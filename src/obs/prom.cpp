#include "obs/prom.h"

#include <sstream>

namespace hds::obs {

namespace {

void escape_label_to(std::ostream& os, const std::string& v) {
  for (const char c : v) {
    switch (c) {
      case '\\':
        os << "\\\\";
        break;
      case '"':
        os << "\\\"";
        break;
      case '\n':
        os << "\\n";
        break;
      default:
        os << c;
    }
  }
}

void labels_to(std::ostream& os, const Labels& labels, const std::string& extra_key = "",
               const std::string& extra_val = "") {
  if (labels.empty() && extra_key.empty()) return;
  os << '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) os << ',';
    first = false;
    os << k << "=\"";
    escape_label_to(os, v);
    os << '"';
  }
  if (!extra_key.empty()) {
    if (!first) os << ',';
    os << extra_key << "=\"" << extra_val << '"';
  }
  os << '}';
}

void type_line(std::ostream& os, const std::string& name, const char* type,
               std::string& last_typed) {
  if (name == last_typed) return;
  last_typed = name;
  os << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::ostringstream os;
  std::string last_typed;
  for (const auto& c : snap.counters) {
    type_line(os, c.name, "counter", last_typed);
    os << c.name;
    labels_to(os, c.labels);
    os << ' ' << c.value << '\n';
  }
  for (const auto& g : snap.gauges) {
    type_line(os, g.name, "gauge", last_typed);
    os << g.name;
    labels_to(os, g.labels);
    os << ' ' << g.value << '\n';
  }
  for (const auto& h : snap.histograms) {
    type_line(os, h.name, "histogram", last_typed);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bucket_counts.size(); ++i) {
      cum += h.bucket_counts[i];
      os << h.name << "_bucket";
      if (i < h.bounds.size()) {
        labels_to(os, h.labels, "le", std::to_string(h.bounds[i]));
      } else {
        labels_to(os, h.labels, "le", "+Inf");
      }
      os << ' ' << cum << '\n';
    }
    os << h.name << "_sum";
    labels_to(os, h.labels);
    os << ' ' << h.sum << '\n';
    os << h.name << "_count";
    labels_to(os, h.labels);
    os << ' ' << h.count << '\n';
  }
  return os.str();
}

}  // namespace hds::obs
