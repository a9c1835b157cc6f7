// Figure 8 consensus tests (Theorem 7): Validity, Agreement and
// Termination in HAS[t < n/2, HΩ] — swept over system size, homonymy
// degree, actual crash count, detector stabilization time and seeds, with
// adversarial pre-stability detector noise.
#include "consensus/majority_homega.h"

#include <gtest/gtest.h>

#include <tuple>

#include "consensus/harness.h"
#include "support/param_grid.h"

namespace hds {
namespace {

TEST(Fig8Consensus, UniqueIdsNoCrashes) {
  Fig8OracleParams p;
  p.ids = ids_unique(4);
  p.t_known = 1;
  auto r = run_fig8_with_oracle(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(Fig8Consensus, UnanimousProposalDecidesThatValue) {
  Fig8OracleParams p;
  p.ids = ids_homonymous(5, 2, 1);
  p.t_known = 2;
  p.proposals = std::vector<Value>(5, 42);
  auto r = run_fig8_with_oracle(p);
  ASSERT_TRUE(r.check.ok) << r.check.detail;
  for (const auto& d : r.decisions) {
    if (d.decided) {
      EXPECT_EQ(d.value, 42);
    }
  }
}

TEST(Fig8Consensus, AnonymousExtremeAllSameId) {
  Fig8OracleParams p;
  p.ids = ids_anonymous(5);
  p.t_known = 2;
  p.crashes = crashes_last_k(5, 2, 25);
  p.fd_stabilize = 50;
  auto r = run_fig8_with_oracle(p);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(Fig8Consensus, UniqueIdExtremeWithLateStabilization) {
  Fig8OracleParams p;
  p.ids = ids_unique(7);
  p.t_known = 3;
  p.crashes = crashes_last_k(7, 3, 10, /*stagger=*/15);
  p.fd_stabilize = 200;
  auto r = run_fig8_with_oracle(p);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(Fig8Consensus, CrashDuringBroadcastStaysSafe) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Fig8OracleParams p;
    p.ids = ids_homonymous(5, 2, 3);
    p.t_known = 2;
    p.crashes = crashes_last_k(5, 2, 15, 9, /*partial=*/true);
    p.fd_stabilize = 40;
    p.seed = seed;
    auto r = run_fig8_with_oracle(p);
    EXPECT_TRUE(r.check.ok) << "seed " << seed << ": " << r.check.detail;
  }
}

TEST(Fig8Consensus, StableDetectorFromStartDecidesQuickly) {
  Fig8OracleParams p;
  p.ids = ids_homonymous(6, 3, 2);
  p.t_known = 2;
  p.noise = OracleHOmega::Noise::kNone;
  auto r = run_fig8_with_oracle(p);
  ASSERT_TRUE(r.check.ok) << r.check.detail;
  EXPECT_LE(r.max_round, 2);
}

TEST(Fig8Consensus, RequiresMajorityParameter) {
  const HOmegaOut dummy{1, 1};
  class Fixed final : public HOmegaHandle {
   public:
    [[nodiscard]] HOmegaOut h_omega() const override { return {1, 1}; }
  };
  Fixed fd;
  (void)dummy;
  MajorityConsensusConfig cfg;
  cfg.n = 4;
  cfg.t = 2;  // not a minority
  EXPECT_THROW(MajorityHOmegaConsensus(cfg, fd), std::invalid_argument);
  cfg.n = 0;
  cfg.t = 0;
  EXPECT_THROW(MajorityHOmegaConsensus(cfg, fd), std::invalid_argument);
  cfg.n = 5;
  cfg.t = 2;
  EXPECT_NO_THROW(MajorityHOmegaConsensus(cfg, fd));
  // Footnote-5 mode ignores n/t but rejects alpha = 0.
  cfg.n = 0;
  cfg.alpha = 3;
  EXPECT_NO_THROW(MajorityHOmegaConsensus(cfg, fd));
  cfg.alpha = 0;
  EXPECT_THROW(MajorityHOmegaConsensus(cfg, fd), std::invalid_argument);
}

TEST(Fig8Consensus, DecisionRoundAndTimeAreRecorded) {
  Fig8OracleParams p;
  p.ids = ids_unique(3);
  p.t_known = 1;
  p.noise = OracleHOmega::Noise::kNone;
  auto r = run_fig8_with_oracle(p);
  ASSERT_TRUE(r.check.ok) << r.check.detail;
  for (const auto& d : r.decisions) {
    if (d.decided) {
      EXPECT_GT(d.at, 0);
      EXPECT_GE(d.round, 1);
    }
  }
  EXPECT_GT(r.broadcasts, 0u);
}

struct Fig8Sweep : ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::size_t, SimTime, std::uint64_t>> {
};

TEST_P(Fig8Sweep, Theorem7Holds) {
  auto [n, distinct, crash_k, fd_stab, seed] = GetParam();
  Fig8OracleParams p;
  p.ids = ids_homonymous(n, distinct, 7 * seed + n);
  p.t_known = crash_k;
  if (crash_k > 0) p.crashes = crashes_last_k(n, crash_k, 20, 11);
  p.fd_stabilize = fd_stab;
  p.seed = seed;
  auto r = run_fig8_with_oracle(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

const testing::ParamGrid<Fig8Sweep::ParamType> kFig8Grid(
    {3, 5, 8}, {1, 2, 5}, {0, 1, 3}, {0, 90}, {1, 2});

INSTANTIATE_TEST_SUITE_P(
    Sweep, Fig8Sweep,
    kFig8Grid.where([](auto n, auto distinct, auto crash_k, auto...) {
      return distinct <= n && 2 * crash_k < n;
    }),
    kFig8Grid.names());

}  // namespace
}  // namespace hds
