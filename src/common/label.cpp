#include "common/label.h"

namespace hds {

namespace {

// Appends `v` to the "{v1,v2,...}" list being built in `out`, whose opening
// brace is already there. The finished list is the text `os << Multiset<Id>`
// prints, built without a stream.
void append_id(std::string& out, Id v) {
  if (out.back() != '{') out += ',';
  out += std::to_string(v);
}

}  // namespace

Label Label::of_multiset(const Multiset<Id>& m) {
  std::string repr = "ms:{";
  for (const auto& [v, count] : m.counts()) {
    for (std::size_t k = 0; k < count; ++k) append_id(repr, v);
  }
  repr += '}';
  return Label(std::move(repr));
}

Label Label::of_set(const std::set<Id>& s) {
  std::string repr = "set:{";
  for (const Id v : s) append_id(repr, v);
  repr += '}';
  return Label(std::move(repr));
}

Label Label::of_count(std::size_t y) { return Label("cnt:" + std::to_string(y)); }

Label Label::of_asigma(std::uint64_t raw) { return Label("as:" + std::to_string(raw)); }

Label Label::of_text(std::string text) { return Label("txt:" + std::move(text)); }

}  // namespace hds
