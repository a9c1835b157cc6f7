// Admissible parameter sweeps for value-parameterized tests.
//
// A sweep is the cartesian product of its axes minus the tuples a predicate
// rejects (crash_k >= n, more distinct ids than processes, ...). Filtering
// at generation time means an inadmissible tuple is never registered,
// rather than registered and skipped at run time. Each case is named by its
// index in the full product, in ::testing::Combine order (the last axis
// varies fastest), so filtering never renames a case.
//
//   struct MySweep : ::testing::TestWithParam<std::tuple<std::size_t, int>> {};
//   const ParamGrid<MySweep::ParamType> kGrid({2, 4, 7}, {0, 1, 3});
//   INSTANTIATE_TEST_SUITE_P(
//       Sweep, MySweep, kGrid.where([](auto n, auto crash_k) { return crash_k < n; }),
//       kGrid.names());
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

namespace hds::testing {

template <typename Param>
class ParamGrid;

template <typename... Ts>
class ParamGrid<std::tuple<Ts...>> {
 public:
  using Param = std::tuple<Ts...>;

  explicit ParamGrid(std::vector<Ts>... axes) { expand<0>(std::tuple(axes...)); }

  // The admissible tuples: those for which keep(args...) holds.
  template <typename Keep>
  [[nodiscard]] auto where(Keep keep) const {
    std::vector<Param> kept;
    for (const Param& p : all_) {
      if (std::apply(keep, p)) kept.push_back(p);
    }
    return ::testing::ValuesIn(kept);
  }

  // Test-name generator: a case's index in the full product.
  [[nodiscard]] auto names() const {
    return [all = all_](const ::testing::TestParamInfo<Param>& info) {
      return std::to_string(std::find(all.begin(), all.end(), info.param) - all.begin());
    };
  }

 private:
  template <std::size_t I, typename... Prefix>
  void expand(const std::tuple<std::vector<Ts>...>& axes, const Prefix&... prefix) {
    if constexpr (I == sizeof...(Ts)) {
      all_.emplace_back(prefix...);
    } else {
      for (const auto& v : std::get<I>(axes)) expand<I + 1>(axes, prefix..., v);
    }
  }

  std::vector<Param> all_;
};

}  // namespace hds::testing
