// Multiset (bag) algebra over ordered element types.
//
// The paper manipulates multisets of process identifiers throughout: I(S) is
// the multiset of identities of a set S of processes, mult_I(i) the
// multiplicity of identity i in I, and the HSigma quorum conditions are
// phrased as sub-multiset inclusion. This header provides that algebra with
// value semantics and total ordering (so multisets can key maps and serve as
// labels, as in the Fig. 7 detector).
//
// Storage is a policy: the default FlatStore keeps (value, count) entries in
// a sorted std::vector — the working sets here are identifier bags of at
// most a few dozen distinct values, where a contiguous scan beats a
// node-based tree on every operation. A store iterates its entries in
// ascending value order, which the algebra below exploits with linear
// merges; the property suite cross-checks every operation against a
// std::map-backed reference store it defines.
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace hds {

namespace detail {

// synth-three-way: <=> when the type has it, otherwise derived from <.
struct SynthThreeWay {
  template <typename U>
  constexpr std::weak_ordering operator()(const U& a, const U& b) const {
    if constexpr (std::three_way_comparable<U>) {
      return a <=> b;
    } else {
      if (a < b) return std::weak_ordering::less;
      if (b < a) return std::weak_ordering::greater;
      return std::weak_ordering::equivalent;
    }
  }
};

}  // namespace detail

// Sorted-flat-vector storage: entries() is a std::vector<std::pair<T, n>>
// ordered by value. The default backend.
template <typename T>
class FlatStore {
 public:
  using Entry = std::pair<T, std::size_t>;
  using Entries = std::vector<Entry>;

  [[nodiscard]] const Entries& entries() const { return entries_; }
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }
  void clear() { entries_.clear(); }

  // Pointer to the count of `v`, or null when absent.
  [[nodiscard]] const std::size_t* find(const T& v) const {
    auto it = lower(v);
    return it != entries_.end() && !(v < it->first) ? &it->second : nullptr;
  }
  [[nodiscard]] std::size_t* find(const T& v) {
    auto it = lower(v);
    return it != entries_.end() && !(v < it->first) ? &it->second : nullptr;
  }

  // Count reference for `v`, inserting a zero entry when absent.
  [[nodiscard]] std::size_t& at_or_insert(const T& v) {
    auto it = lower(v);
    if (it == entries_.end() || v < it->first) it = entries_.insert(it, Entry{v, 0});
    return it->second;
  }

  // Precondition: `v` is present.
  void erase(const T& v) { entries_.erase(lower(v)); }

  // Precondition: `v` is greater than every stored value (merge-building).
  void append(const T& v, std::size_t count) { entries_.emplace_back(v, count); }

 private:
  [[nodiscard]] typename Entries::iterator lower(const T& v) {
    return std::lower_bound(entries_.begin(), entries_.end(), v,
                            [](const Entry& e, const T& x) { return e.first < x; });
  }
  [[nodiscard]] typename Entries::const_iterator lower(const T& v) const {
    return std::lower_bound(entries_.begin(), entries_.end(), v,
                            [](const Entry& e, const T& x) { return e.first < x; });
  }

  Entries entries_;
};

template <typename T, typename Store = FlatStore<T>>
class Multiset {
 public:
  using CountMap = typename Store::Entries;

  Multiset() = default;

  // Builds the multiset of a range (with repetitions preserved).
  template <typename It>
  Multiset(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  Multiset(std::initializer_list<T> init) : Multiset(init.begin(), init.end()) {}

  static Multiset with_copies(const T& value, std::size_t count) {
    Multiset m;
    m.insert(value, count);
    return m;
  }

  void insert(const T& value, std::size_t count = 1) {
    if (count == 0) return;
    store_.at_or_insert(value) += count;
    size_ += count;
  }

  // Removes one instance; removing an absent element is a logic error.
  void erase_one(const T& value) {
    std::size_t* c = store_.find(value);
    if (c == nullptr) throw std::out_of_range("Multiset::erase_one: absent element");
    if (--*c == 0) store_.erase(value);
    --size_;
  }

  void clear() {
    store_.clear();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t distinct_size() const { return store_.entry_count(); }

  // The paper's mult_I(i): number of instances of `value`.
  [[nodiscard]] std::size_t multiplicity(const T& value) const {
    const std::size_t* c = store_.find(value);
    return c == nullptr ? 0 : *c;
  }

  [[nodiscard]] bool contains(const T& value) const { return multiplicity(value) > 0; }

  // Smallest element (used by the Observation 1 / Corollary 2 leader rule).
  [[nodiscard]] const T& min() const {
    if (empty()) throw std::out_of_range("Multiset::min: empty multiset");
    return store_.entries().begin()->first;
  }

  // Sub-multiset inclusion: every element of *this appears in `other` with at
  // least the same multiplicity. Linear merge over the two sorted ranges.
  [[nodiscard]] bool is_subset_of(const Multiset& other) const {
    if (size_ > other.size_) return false;
    auto b = other.store_.entries().begin();
    const auto b_end = other.store_.entries().end();
    for (const auto& [v, c] : store_.entries()) {
      while (b != b_end && b->first < v) ++b;
      if (b == b_end || v < b->first || b->second < c) return false;
    }
    return true;
  }

  // Multiset union taking per-element max of multiplicities.
  [[nodiscard]] Multiset union_max(const Multiset& other) const {
    return merge(other, [](std::size_t a, std::size_t b) { return std::max(a, b); });
  }

  // Additive union (sum of multiplicities).
  [[nodiscard]] Multiset sum(const Multiset& other) const {
    return merge(other, [](std::size_t a, std::size_t b) { return a + b; });
  }

  // Per-element min of multiplicities.
  [[nodiscard]] Multiset intersection(const Multiset& other) const {
    return merge(other, [](std::size_t a, std::size_t b) { return std::min(a, b); });
  }

  [[nodiscard]] bool intersects(const Multiset& other) const {
    auto a = store_.entries().begin();
    auto b = other.store_.entries().begin();
    const auto a_end = store_.entries().end();
    const auto b_end = other.store_.entries().end();
    while (a != a_end && b != b_end) {
      if (a->first < b->first) {
        ++a;
      } else if (b->first < a->first) {
        ++b;
      } else {
        return true;
      }
    }
    return false;
  }

  // Expansion into a sorted vector with repetitions.
  [[nodiscard]] std::vector<T> to_vector() const {
    std::vector<T> out;
    out.reserve(size_);
    for (const auto& [v, c] : store_.entries()) {
      for (std::size_t k = 0; k < c; ++k) out.push_back(v);
    }
    return out;
  }

  // Sorted (value, count) entries (a std::vector of pairs for FlatStore).
  [[nodiscard]] const CountMap& counts() const { return store_.entries(); }

  [[nodiscard]] std::string to_string() const {
    std::ostringstream os;
    os << *this;
    return os.str();
  }

  friend bool operator==(const Multiset& a, const Multiset& b) {
    return a.size_ == b.size_ &&
           std::equal(a.store_.entries().begin(), a.store_.entries().end(),
                      b.store_.entries().begin(), b.store_.entries().end(),
                      [](const auto& x, const auto& y) {
                        return x.first == y.first && x.second == y.second;
                      });
  }

  // Lexicographic over the sorted (value, count) entries — the same total
  // order a std::map container comparison produces.
  friend std::weak_ordering operator<=>(const Multiset& a, const Multiset& b) {
    return std::lexicographical_compare_three_way(
        a.store_.entries().begin(), a.store_.entries().end(), b.store_.entries().begin(),
        b.store_.entries().end(), [](const auto& x, const auto& y) -> std::weak_ordering {
          const std::weak_ordering k = detail::SynthThreeWay{}(x.first, y.first);
          if (k != std::weak_ordering::equivalent) return k;
          return detail::SynthThreeWay{}(x.second, y.second);
        });
  }

  friend std::ostream& operator<<(std::ostream& os, const Multiset& m) {
    os << '{';
    bool first = true;
    for (const auto& [v, c] : m.store_.entries()) {
      for (std::size_t k = 0; k < c; ++k) {
        if (!first) os << ',';
        os << v;
        first = false;
      }
    }
    return os << '}';
  }

 private:
  // Linear merge of the two sorted entry ranges; `combine(a, b)` maps the two
  // multiplicities (0 when absent) to the result's, with 0 dropping the entry.
  template <typename Combine>
  [[nodiscard]] Multiset merge(const Multiset& other, Combine combine) const {
    Multiset out;
    auto a = store_.entries().begin();
    auto b = other.store_.entries().begin();
    const auto a_end = store_.entries().end();
    const auto b_end = other.store_.entries().end();
    while (a != a_end || b != b_end) {
      const T* v;
      std::size_t ca = 0;
      std::size_t cb = 0;
      if (b == b_end || (a != a_end && a->first < b->first)) {
        v = &a->first;
        ca = a->second;
        ++a;
      } else if (a == a_end || b->first < a->first) {
        v = &b->first;
        cb = b->second;
        ++b;
      } else {
        v = &a->first;
        ca = a->second;
        cb = b->second;
        ++a;
        ++b;
      }
      const std::size_t c = combine(ca, cb);
      if (c > 0) {
        out.store_.append(*v, c);
        out.size_ += c;
      }
    }
    return out;
  }

  Store store_;
  std::size_t size_ = 0;
};

}  // namespace hds
