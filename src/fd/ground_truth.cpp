#include "fd/ground_truth.h"

#include <algorithm>

#include "sim/system.h"

namespace hds {

Multiset<Id> GroundTruth::correct_ids() const {
  Multiset<Id> out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (correct[i]) out.insert(ids[i]);
  }
  return out;
}

std::vector<ProcIndex> GroundTruth::correct_indices() const {
  std::vector<ProcIndex> out;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (correct[i]) out.push_back(i);
  }
  return out;
}

std::size_t GroundTruth::correct_count() const {
  return static_cast<std::size_t>(std::count(correct.begin(), correct.end(), true));
}

GroundTruth GroundTruth::from(const System& sys) {
  GroundTruth gt;
  gt.ids = sys.ids();
  gt.correct.resize(sys.n());
  for (ProcIndex i = 0; i < sys.n(); ++i) gt.correct[i] = sys.is_correct(i);
  return gt;
}

}  // namespace hds
