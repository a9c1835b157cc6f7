#include "consensus/quorum_index.h"

#include <algorithm>

namespace hds {

void QuorumIndex::add(Id id, std::int64_t sr, const std::set<Label>& labels) {
  const std::size_t pos = size_++;
  max_sr_ = std::max(max_sr_, sr);
  for (const Label& x : labels) {
    Cell& cell = cells_.try_emplace(x).first->second[sr];
    cell.ids.insert(id);
    cell.arrivals.emplace_back(id, pos);
  }
}

std::optional<QuorumIndex::Match> QuorumIndex::find(
    const std::map<Label, Multiset<Id>>& h_quora) const {
  for (const auto& [x, mset] : h_quora) {
    if (mset.empty()) continue;
    const auto by_sr = cells_.find(x);
    if (by_sr == cells_.end()) continue;
    for (const auto& [sr, cell] : by_sr->second) {
      if (!mset.is_subset_of(cell.ids)) continue;
      Match m{x, sr, {}};
      m.positions.reserve(mset.size());
      for (const auto& [i, mult] : mset.counts()) {
        std::size_t need = mult;
        for (auto a = cell.arrivals.begin(); need > 0; ++a) {
          if (a->first != i) continue;
          m.positions.push_back(a->second);
          --need;
        }
      }
      return m;
    }
  }
  return std::nullopt;
}

}  // namespace hds
