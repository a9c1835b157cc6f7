// Figure 9 consensus tests (Theorem 8): consensus in HAS[HΩ, HΣ] for ANY
// number of crash failures, without n, t or membership knowledge — plus
// the Section 5.3 closing remark (AAS[AΩ, HΣ] variant).
#include "consensus/quorum_homega_hsigma.h"

#include <gtest/gtest.h>

#include <tuple>

#include "consensus/harness.h"
#include "support/param_grid.h"

namespace hds {
namespace {

TEST(Fig9Consensus, UniqueIdsNoCrashes) {
  Fig9OracleParams p;
  p.ids = ids_unique(4);
  auto r = run_fig9_with_oracle(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(Fig9Consensus, ToleratesAllButOneCrashing) {
  // t = n-1: far beyond any majority assumption.
  Fig9OracleParams p;
  p.ids = ids_homonymous(6, 3, 5);
  p.crashes = crashes_last_k(6, 5, 15, 7);
  p.fd1_stabilize = 90;
  p.fd2_stabilize = 120;
  auto r = run_fig9_with_oracle(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(Fig9Consensus, UnanimousProposalSticks) {
  Fig9OracleParams p;
  p.ids = ids_homonymous(5, 2, 2);
  p.proposals = std::vector<Value>(5, 7);
  auto r = run_fig9_with_oracle(p);
  ASSERT_TRUE(r.check.ok) << r.check.detail;
  for (const auto& d : r.decisions) {
    if (d.decided) {
      EXPECT_EQ(d.value, 7);
    }
  }
}

TEST(Fig9Consensus, LateHSigmaStabilizationForcesSubRounds) {
  // With crashes before the HΣ oracle stabilizes, the only usable quorum
  // changes mid-phase: processes must bump sub-rounds and rebroadcast.
  Fig9OracleParams p;
  p.ids = ids_homonymous(5, 2, 4);
  p.crashes = crashes_last_k(5, 2, 5);
  p.fd1_stabilize = 30;
  p.fd2_stabilize = 150;
  auto r = run_fig9_with_oracle(p);
  ASSERT_TRUE(r.check.ok) << r.check.detail;
  EXPECT_GE(r.max_sub_round, 2);
}

TEST(Fig9Consensus, CrashDuringBroadcastStaysSafe) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Fig9OracleParams p;
    p.ids = ids_homonymous(5, 2, 9);
    p.crashes = crashes_last_k(5, 3, 12, 8, /*partial=*/true);
    p.fd1_stabilize = 60;
    p.fd2_stabilize = 80;
    p.seed = seed;
    auto r = run_fig9_with_oracle(p);
    EXPECT_TRUE(r.check.ok) << "seed " << seed << ": " << r.check.detail;
  }
}

TEST(Fig9Consensus, AnonymousAOmegaVariantDecides) {
  Fig9AnonOmegaParams p;
  p.n = 5;
  p.crashes = crashes_last_k(5, 3, 18, 6);
  p.aomega_stabilize = 70;
  p.fd2_stabilize = 90;
  auto r = run_fig9_anon_aomega(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

TEST(Fig9Consensus, AnonymousAOmegaVariantNoCrashes) {
  Fig9AnonOmegaParams p;
  p.n = 3;
  auto r = run_fig9_anon_aomega(p);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

struct Fig9Sweep : ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t, std::size_t, SimTime, std::uint64_t>> {
};

TEST_P(Fig9Sweep, Theorem8Holds) {
  auto [n, distinct, crash_k, fd_stab, seed] = GetParam();
  Fig9OracleParams p;
  p.ids = ids_homonymous(n, distinct, 13 * seed + n);
  if (crash_k > 0) p.crashes = crashes_last_k(n, crash_k, 20, 9);
  p.fd1_stabilize = fd_stab;
  p.fd2_stabilize = fd_stab + 30;
  p.seed = seed;
  auto r = run_fig9_with_oracle(p);
  EXPECT_TRUE(r.all_correct_decided);
  EXPECT_TRUE(r.check.ok) << r.check.detail;
}

const testing::ParamGrid<Fig9Sweep::ParamType> kFig9Grid(
    {2, 4, 7}, {1, 2, 4}, {0, 2, 6}, {0, 100}, {1, 2});

INSTANTIATE_TEST_SUITE_P(
    Sweep, Fig9Sweep,
    kFig9Grid.where([](auto n, auto distinct, auto crash_k, auto...) {
      return distinct <= n && crash_k < n;
    }),
    kFig9Grid.names());

}  // namespace
}  // namespace hds
