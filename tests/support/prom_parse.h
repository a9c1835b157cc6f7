// The Prometheus renderer's round-trip oracle: a strict parser for the
// dialect obs::prometheus_text writes. Tests assert
// parse(render(snapshot)) == snapshot, so a rendering bug (bad escaping,
// non-cumulative buckets, missing +Inf) cannot ship silently.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace hds::obs {

class PromParseError : public std::runtime_error {
 public:
  PromParseError(const std::string& what, std::size_t line)
      : std::runtime_error(what + " at line " + std::to_string(line)), line_(line) {}
  [[nodiscard]] std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

namespace prom_detail {

inline bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
    if (!alpha && (i == 0 || c < '0' || c > '9')) return false;
  }
  return true;
}

struct Sample {
  std::string name;
  Labels labels;
  std::string le;  // only when an le label was present
  bool has_le = false;
  std::int64_t ivalue = 0;
  std::uint64_t uvalue = 0;
  bool negative = false;
};

inline std::string parse_name(const std::string& s, std::size_t& i, std::size_t line) {
  const std::size_t start = i;
  while (i < s.size() &&
         ((s[i] >= 'a' && s[i] <= 'z') || (s[i] >= 'A' && s[i] <= 'Z') || s[i] == '_' ||
          (i > start && s[i] >= '0' && s[i] <= '9'))) {
    ++i;
  }
  if (i == start) throw PromParseError("expected a metric or label name", line);
  return s.substr(start, i - start);
}

inline std::string parse_quoted(const std::string& s, std::size_t& i, std::size_t line) {
  if (i >= s.size() || s[i] != '"') throw PromParseError("expected '\"'", line);
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\') {
      ++i;
      if (i >= s.size()) throw PromParseError("dangling escape", line);
      switch (s[i]) {
        case '\\':
          out += '\\';
          break;
        case '"':
          out += '"';
          break;
        case 'n':
          out += '\n';
          break;
        default:
          throw PromParseError("unknown escape in label value", line);
      }
    } else {
      out += s[i];
    }
    ++i;
  }
  if (i >= s.size()) throw PromParseError("unterminated label value", line);
  ++i;  // closing quote
  return out;
}

inline Sample parse_sample(const std::string& s, std::size_t line) {
  std::size_t i = 0;
  Sample out;
  out.name = parse_name(s, i, line);
  if (i < s.size() && s[i] == '{') {
    ++i;
    while (i < s.size() && s[i] != '}') {
      const std::string key = parse_name(s, i, line);
      if (i >= s.size() || s[i] != '=') throw PromParseError("expected '=' after label name", line);
      ++i;
      const std::string val = parse_quoted(s, i, line);
      if (key == "le") {
        if (out.has_le) throw PromParseError("duplicate le label", line);
        out.has_le = true;
        out.le = val;
      } else if (!out.labels.emplace(key, val).second) {
        throw PromParseError("duplicate label '" + key + "'", line);
      }
      if (i < s.size() && s[i] == ',') ++i;
    }
    if (i >= s.size()) throw PromParseError("unterminated label set", line);
    ++i;  // '}'
  }
  if (i >= s.size() || s[i] != ' ') throw PromParseError("expected ' ' before the value", line);
  ++i;
  if (i < s.size() && s[i] == '-') {
    out.negative = true;
    ++i;
  }
  const std::size_t digits = i;
  std::uint64_t v = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
    v = v * 10 + static_cast<std::uint64_t>(s[i] - '0');
    ++i;
  }
  if (i == digits || i != s.size()) {
    throw PromParseError("expected an integer value terminating the line", line);
  }
  out.uvalue = v;
  out.ivalue = out.negative ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
  return out;
}

struct HistAcc {
  std::vector<std::pair<std::string, std::uint64_t>> buckets;  // (le, cumulative)
  std::optional<std::int64_t> sum;
  std::optional<std::uint64_t> count;
  std::size_t line = 0;  // first line, for error messages
};

}  // namespace prom_detail

// Strict inverse of prometheus_text. Throws PromParseError on anything the
// renderer would not produce: float values, non-cumulative or non-ascending
// histogram buckets, a missing +Inf bucket, a series without its # TYPE
// line, or any other line shape. The returned snapshot is sorted the same
// way MetricsRegistry::snapshot() sorts, so round-trip comparison is ==.
inline MetricsSnapshot prometheus_parse(const std::string& text) {
  MetricsSnapshot out;
  std::string cur_name;
  std::string cur_type;
  std::map<std::pair<std::string, Labels>, prom_detail::HistAcc> hists;
  std::map<std::pair<std::string, Labels>, std::size_t> seen_scalars;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line =
        text.substr(pos, (eol == std::string::npos ? text.size() : eol) - pos);
    pos = eol == std::string::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    if (line.empty()) {
      if (pos > text.size()) break;
      continue;
    }
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash;
      std::string kw;
      std::string name;
      std::string type;
      ls >> hash >> kw >> name >> type;
      std::string rest;
      if (kw != "TYPE" || !(ls >> rest).eof() || !prom_detail::valid_name(name) ||
          (type != "counter" && type != "gauge" && type != "histogram")) {
        throw PromParseError("malformed # TYPE line", line_no);
      }
      cur_name = name;
      cur_type = type;
      continue;
    }
    if (cur_name.empty()) throw PromParseError("sample before any # TYPE line", line_no);
    const prom_detail::Sample s = prom_detail::parse_sample(line, line_no);
    if (cur_type == "counter" || cur_type == "gauge") {
      if (s.name != cur_name) throw PromParseError("sample does not match the # TYPE name", line_no);
      if (s.has_le) throw PromParseError("le label on a non-histogram series", line_no);
      if (!seen_scalars.emplace(std::make_pair(s.name, s.labels), line_no).second) {
        throw PromParseError("duplicate series", line_no);
      }
      if (cur_type == "counter") {
        if (s.negative) throw PromParseError("negative counter value", line_no);
        out.counters.push_back({s.name, s.labels, s.uvalue});
      } else {
        out.gauges.push_back({s.name, s.labels, s.ivalue});
      }
      continue;
    }
    // histogram
    prom_detail::HistAcc& acc = hists[{cur_name, s.labels}];
    if (acc.line == 0) acc.line = line_no;
    if (s.name == cur_name + "_bucket") {
      if (!s.has_le) throw PromParseError("histogram bucket without le", line_no);
      if (s.negative) throw PromParseError("negative bucket count", line_no);
      acc.buckets.emplace_back(s.le, s.uvalue);
    } else if (s.name == cur_name + "_sum") {
      if (s.has_le || acc.sum.has_value()) throw PromParseError("malformed _sum line", line_no);
      acc.sum = s.ivalue;
    } else if (s.name == cur_name + "_count") {
      if (s.has_le || acc.count.has_value() || s.negative) {
        throw PromParseError("malformed _count line", line_no);
      }
      acc.count = s.uvalue;
    } else {
      throw PromParseError("sample does not match the # TYPE name", line_no);
    }
  }

  for (auto& [key, acc] : hists) {
    MetricsSnapshot::HistogramSample h;
    h.name = key.first;
    h.labels = key.second;
    if (acc.buckets.empty() || acc.buckets.back().first != "+Inf") {
      throw PromParseError("histogram missing its +Inf bucket", acc.line);
    }
    if (!acc.sum.has_value() || !acc.count.has_value()) {
      throw PromParseError("histogram missing _sum or _count", acc.line);
    }
    std::uint64_t prev_cum = 0;
    std::optional<std::int64_t> prev_bound;
    for (std::size_t i = 0; i < acc.buckets.size(); ++i) {
      const auto& [le, cum] = acc.buckets[i];
      if (cum < prev_cum) throw PromParseError("non-cumulative bucket counts", acc.line);
      if (i + 1 < acc.buckets.size()) {
        char* end = nullptr;
        const long long b = std::strtoll(le.c_str(), &end, 10);
        if (le.empty() || end == nullptr || *end != '\0') {
          throw PromParseError("non-integer le bound", acc.line);
        }
        if (prev_bound.has_value() && b <= *prev_bound) {
          throw PromParseError("le bounds not ascending", acc.line);
        }
        prev_bound = b;
        h.bounds.push_back(b);
      }
      h.bucket_counts.push_back(cum - prev_cum);
      prev_cum = cum;
    }
    if (*acc.count != prev_cum) {
      throw PromParseError("_count disagrees with the +Inf bucket", acc.line);
    }
    h.count = *acc.count;
    h.sum = *acc.sum;
    out.histograms.push_back(std::move(h));
  }

  const auto by_key = [](const auto& a, const auto& b) {
    return std::tie(a.name, a.labels) < std::tie(b.name, b.labels);
  };
  std::sort(out.counters.begin(), out.counters.end(), by_key);
  std::sort(out.gauges.begin(), out.gauges.end(), by_key);
  std::sort(out.histograms.begin(), out.histograms.end(), by_key);
  return out;
}

}  // namespace hds::obs
