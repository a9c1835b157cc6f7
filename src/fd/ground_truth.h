// The run's ground truth: identities and correctness of every process.
// Available only to oracles, spec checkers and benchmarks — never to the
// algorithms (the paper's Pi is a formalization device).
#pragma once

#include <vector>

#include "common/multiset.h"
#include "common/types.h"

namespace hds {

class System;

struct GroundTruth {
  std::vector<Id> ids;
  std::vector<bool> correct;

  [[nodiscard]] std::size_t n() const { return ids.size(); }
  [[nodiscard]] Multiset<Id> all_ids() const { return Multiset<Id>(ids.begin(), ids.end()); }
  [[nodiscard]] Multiset<Id> correct_ids() const;
  [[nodiscard]] std::vector<ProcIndex> correct_indices() const;
  [[nodiscard]] std::size_t correct_count() const;

  static GroundTruth from(const System& sys);
};

}  // namespace hds
