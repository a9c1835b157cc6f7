// Fig. 9's quorum test (lines 25-28 / 45-48) over one round's PH1Q or PH2Q
// arrivals, indexed as they arrive.
//
// For each label x and sub-round sr the index keeps I(x, sr), the multiset
// of sender identifiers of the messages sent at sr that carry x, together
// with those messages' arrival positions. A pair (x, mset) of h_quora is
// realized at sr exactly when mset ⊆ I(x, sr), and M is then the first
// mult(i) arrivals per identifier i of mset. find() walks h_quora in Label
// order and each label's sub-rounds in ascending order and returns the first
// realized pair, so M is a function of the arrival order and h_quora alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/label.h"
#include "common/multiset.h"
#include "common/types.h"

namespace hds {

class QuorumIndex {
 public:
  // Indexes the next arrival, at position size(): a message from `id` sent
  // at sub-round `sr` with label set `labels`.
  void add(Id id, std::int64_t sr, const std::set<Label>& labels);

  struct Match {
    Label x;
    std::int64_t sr = 0;
    // M's arrival positions: per identifier of mset in ascending order, its
    // first mult(i) arrivals at (x, sr) in arrival order.
    std::vector<std::size_t> positions;
  };

  // The first pair of `h_quora` the arrivals realize, with its sub-round;
  // nullopt when none is. Empty multisets are skipped: a safe HΣ detector
  // never emits one, and the empty set would realize it trivially.
  [[nodiscard]] std::optional<Match> find(const std::map<Label, Multiset<Id>>& h_quora) const;

  [[nodiscard]] std::size_t size() const { return size_; }
  // Highest sub-round of any arrival, labelled or not; 0 when empty.
  [[nodiscard]] std::int64_t max_sub_round() const { return max_sr_; }

 private:
  struct Cell {
    Multiset<Id> ids;                                  // I(x, sr)
    std::vector<std::pair<Id, std::size_t>> arrivals;  // (sender, position)
  };

  std::map<Label, std::map<std::int64_t, Cell>> cells_;
  std::size_t size_ = 0;
  std::int64_t max_sr_ = 0;
};

}  // namespace hds
