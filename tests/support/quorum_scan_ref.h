// Reference for Fig. 9's quorum test (lines 25-28 / 45-48): the scan
// QuorumConsensus ran before it indexed arrivals, which rebuilds everything
// from the buffered messages on every call. It groups the round's messages
// by sub-round, then for each pair (x, mset) of h_quora in Label order and
// each sub-round in ascending order groups the messages carrying x by
// sender, and takes the first pair whose groups hold mult(i) messages for
// every identifier i of mset. QuorumIndex must pick the same pair and the
// same messages.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/label.h"
#include "common/multiset.h"
#include "common/types.h"

namespace hds::testing {

template <typename M>
struct RefQuorumScan {
  bool found = false;
  Label x;
  std::int64_t sr = 0;
  std::vector<const M*> quorum;  // the chosen message set M
};

// `M` is Ph1QMsg or Ph2QMsg (any type with r, sr, id and labels).
template <typename M>
RefQuorumScan<M> ref_scan_quorum(const std::vector<M>& msgs, Round r,
                                 const std::map<Label, Multiset<Id>>& h_quora) {
  std::map<std::int64_t, std::vector<const M*>> by_sr;
  for (const M& m : msgs) {
    if (m.r == r) by_sr[m.sr].push_back(&m);
  }
  RefQuorumScan<M> out;
  for (const auto& [x, mset] : h_quora) {
    if (mset.empty()) continue;  // a safe HΣ detector never emits an empty quorum
    for (const auto& [sr, group] : by_sr) {
      std::map<Id, std::vector<const M*>> by_id;
      for (const M* m : group) {
        if (m->labels.contains(x)) by_id[m->id].push_back(m);
      }
      bool ok = true;
      for (const auto& [i, c] : mset.counts()) {
        auto it = by_id.find(i);
        if (it == by_id.end() || it->second.size() < c) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
      // M: the first mult(i) matching messages per identifier — any exact
      // realization satisfies the pseudocode's existential condition.
      for (const auto& [i, c] : mset.counts()) {
        const auto& cand = by_id[i];
        out.quorum.insert(out.quorum.end(), cand.begin(), cand.begin() + static_cast<long>(c));
      }
      out.found = true;
      out.x = x;
      out.sr = sr;
      return out;
    }
  }
  return out;
}

}  // namespace hds::testing
