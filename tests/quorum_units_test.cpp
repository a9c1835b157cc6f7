// Protocol-level unit tests of the Fig. 9 state machine: quorum scanning
// with homonym multiplicities, sub-round bumping, the PH2 short-circuit,
// the COORD(r+1) release, and the AAS[AΩ, HΣ] variant. Then QuorumIndex on
// its own, against the rebuilding reference scan.
#include "consensus/quorum_homega_hsigma.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "consensus/quorum_index.h"
#include "support/quorum_scan_ref.h"
#include "support/script_env.h"

namespace hds {
namespace {

using testing::ref_scan_quorum;
using testing::ScriptAOmega;
using testing::ScriptEnv;
using testing::ScriptHOmega;
using testing::ScriptHSigma;

constexpr Id kSelf = 1;
const Label kLx = Label::of_text("x");
const Label kLy = Label::of_text("y");

struct Fig9Fixture : ::testing::Test {
  Fig9Fixture() : env(kSelf) {
    cfg.proposal = 30;
    fd1.out = {7, 1};  // someone else leads: the fixture usually drives PH0
    // One quorum (x, {1, 2}); self carries x.
    fd2.snap.labels = {kLx};
    fd2.snap.quora.emplace(kLx, Multiset<Id>{1, 2});
  }

  QuorumConsensus make() { return QuorumConsensus(cfg, fd1, fd2); }

  // Brings a fresh machine to Phase 1 of round 1 with est1 = `est`.
  void to_phase1(QuorumConsensus& c, Value est) {
    c.on_start(env);
    c.on_message(env, make_message(kPh0Type, Ph0Msg{1, est}));
    ASSERT_EQ(env.count(kPh1QType), 1u);
  }

  void deliver_ph1q(QuorumConsensus& c, Id id, Round r, std::int64_t sr, std::set<Label> labels,
                    Value est) {
    c.on_message(env, make_message(kPh1QType, Ph1QMsg{id, r, sr, std::move(labels), est}));
  }
  void deliver_ph2q(QuorumConsensus& c, Id id, Round r, std::int64_t sr, std::set<Label> labels,
                    MaybeValue est2) {
    c.on_message(env, make_message(kPh2QType, Ph2QMsg{id, r, sr, std::move(labels), est2}));
  }

  QuorumConsensusConfig cfg;
  ScriptHOmega fd1;
  ScriptHSigma fd2;
  ScriptEnv env;
};

TEST_F(Fig9Fixture, Ph1QCarriesCurrentLabels) {
  auto c = make();
  to_phase1(c, 42);
  const auto* ph1 = env.last_body<Ph1QMsg>(kPh1QType);
  ASSERT_NE(ph1, nullptr);
  EXPECT_EQ(ph1->id, kSelf);
  EXPECT_EQ(ph1->r, 1);
  EXPECT_EQ(ph1->sr, 1);
  EXPECT_EQ(ph1->labels, (std::set<Label>{kLx}));
  EXPECT_EQ(ph1->est, 42);
}

TEST_F(Fig9Fixture, QuorumNeedsExactSenderMultiset) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  EXPECT_EQ(env.count(kPh2QType), 0u);  // {1} != {1,2}
  deliver_ph1q(c, 2, 1, 1, {kLx}, 42);
  const auto* ph2 = env.last_body<Ph2QMsg>(kPh2QType);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{42});  // unanimous quorum
}

TEST_F(Fig9Fixture, HomonymMultiplicityIsRespected) {
  // Quorum {1, 1}: two distinct messages from identifier 1 are required.
  fd2.snap.quora.clear();
  fd2.snap.quora.emplace(kLx, Multiset<Id>{1, 1});
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);  // only one instance so far (our own)
  EXPECT_EQ(env.count(kPh2QType), 0u);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);  // the homonym's copy
  EXPECT_EQ(env.count(kPh2QType), 1u);
}

TEST_F(Fig9Fixture, MessagesWithoutTheLabelDoNotCount) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLy}, 42);  // carries the wrong label
  deliver_ph1q(c, 2, 1, 1, {kLy}, 42);
  EXPECT_EQ(env.count(kPh2QType), 0u);
}

TEST_F(Fig9Fixture, MixedEstimatesInQuorumYieldBottom) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 77);
  const auto* ph2 = env.last_body<Ph2QMsg>(kPh2QType);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{});
}

TEST_F(Fig9Fixture, QuorumMembersMustShareOneSubRound) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 2, {kLx}, 42);  // different sub-round: no quorum...
  // ...but observing sr=2 bumps us to sr=2 and rebroadcasts (lines 32-36).
  const auto* ph1 = env.last_body<Ph1QMsg>(kPh1QType);
  ASSERT_NE(ph1, nullptr);
  EXPECT_EQ(ph1->sr, 2);
  EXPECT_EQ(env.count(kPh2QType), 0u);
  // A matching sr=2 message from id 1 completes the sr=2 quorum.
  deliver_ph1q(c, 1, 1, 2, {kLx}, 42);
  EXPECT_EQ(env.count(kPh2QType), 1u);
}

TEST_F(Fig9Fixture, LabelChangeBumpsSubRoundOnPoll) {
  auto c = make();
  to_phase1(c, 42);
  fd2.snap.labels.insert(kLy);  // detector output changes silently
  c.on_timer(env, env.timers.front().id);
  const auto* ph1 = env.last_body<Ph1QMsg>(kPh1QType);
  ASSERT_NE(ph1, nullptr);
  EXPECT_EQ(ph1->sr, 2);
  EXPECT_TRUE(ph1->labels.contains(kLy));
}

TEST_F(Fig9Fixture, Ph2ShortCircuitsPhase1) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph2q(c, 2, 1, 1, {kLx}, MaybeValue{55});
  // Lines 23-24: adopt est2 = 55 and enter Phase 2 directly.
  const auto* ph2 = env.last_body<Ph2QMsg>(kPh2QType);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->id, kSelf);
  EXPECT_EQ(ph2->est2, MaybeValue{55});
}

TEST_F(Fig9Fixture, Ph2QuorumUnanimousDecides) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 42);
  deliver_ph2q(c, 1, 1, 1, {kLx}, MaybeValue{42});
  deliver_ph2q(c, 2, 1, 1, {kLx}, MaybeValue{42});
  EXPECT_TRUE(c.done());
  EXPECT_EQ(c.decision().value, 42);
  EXPECT_EQ(env.count(kDecideType), 1u);
}

TEST_F(Fig9Fixture, Ph2MixedAdoptsAndAdvances) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 77);  // est2 = bottom for us
  deliver_ph2q(c, 1, 1, 1, {kLx}, MaybeValue{});
  deliver_ph2q(c, 2, 1, 1, {kLx}, MaybeValue{77});
  EXPECT_FALSE(c.done());
  EXPECT_EQ(c.current_round(), 2);
  const auto* coord = env.last_body<CoordMsg>(kCoordType);
  ASSERT_NE(coord, nullptr);
  EXPECT_EQ(coord->r, 2);
  EXPECT_EQ(coord->est, 77);  // line 52 adopted the non-bottom value
}

TEST_F(Fig9Fixture, CoordOfNextRoundReleasesPhase2) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 42);
  ASSERT_EQ(env.count(kPh2QType), 1u);
  // No PH2 quorum ever forms; someone already opened round 2 (lines 43-44).
  c.on_message(env, make_message(kCoordType, CoordMsg{9, 2, 5}));
  EXPECT_EQ(c.current_round(), 2);
}

TEST_F(Fig9Fixture, AnonymousVariantUsesALeader) {
  ScriptAOmega aomega;
  QuorumConsensus c(cfg, aomega, fd2);
  c.on_start(env);
  // Not a leader and no PH0: parked in Phase 0 (no coordination wait).
  EXPECT_EQ(env.count(kPh1QType), 0u);
  aomega.leader = true;
  c.on_timer(env, env.timers.front().id);
  EXPECT_EQ(env.count(kPh0Type), 1u);
  EXPECT_EQ(env.count(kPh1QType), 1u);
}

TEST_F(Fig9Fixture, EmptyQuorumInDetectorIsIgnored) {
  fd2.snap.quora.emplace(kLy, Multiset<Id>{});  // a broken pair
  auto c = make();
  to_phase1(c, 42);
  // The empty multiset must not instantly satisfy the scan.
  EXPECT_EQ(env.count(kPh2QType), 0u);
}

TEST_F(Fig9Fixture, StaleRoundTrafficIsInert) {
  auto c = make();
  to_phase1(c, 42);
  // Finish round 1 with a mixed PH2 quorum: advance to round 2.
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 77);
  deliver_ph2q(c, 1, 1, 1, {kLx}, MaybeValue{});
  deliver_ph2q(c, 2, 1, 1, {kLx}, MaybeValue{77});
  ASSERT_EQ(c.current_round(), 2);
  env.clear();
  // Late round-1 traffic must cause no broadcast and no state change.
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph2q(c, 1, 1, 1, {kLx}, MaybeValue{42});
  EXPECT_TRUE(env.sent.empty());
  EXPECT_EQ(c.current_round(), 2);
  EXPECT_FALSE(c.done());
}

TEST_F(Fig9Fixture, FutureRoundQuorumTrafficIsBuffered) {
  auto c = make();
  to_phase1(c, 42);
  // Round-2 PH1Q messages arrive early.
  deliver_ph1q(c, 1, 2, 1, {kLx}, 9);
  deliver_ph1q(c, 2, 2, 1, {kLx}, 9);
  EXPECT_EQ(c.current_round(), 1);
  // Close round 1 (mixed -> next round); buffered round-2 traffic plus our
  // own PH1Q should drive Phase 1 of round 2 the moment PH0 unblocks it.
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 77);
  deliver_ph2q(c, 1, 1, 1, {kLx}, MaybeValue{});
  deliver_ph2q(c, 2, 1, 1, {kLx}, MaybeValue{77});
  ASSERT_EQ(c.current_round(), 2);
  c.on_message(env, make_message(kPh0Type, Ph0Msg{2, 9}));  // round-2 leader value
  // The buffered {1,2} quorum at sub-round 1 carries est 9 unanimously: we
  // must already have broadcast a PH2Q with est2 = 9 for round 2.
  const auto* ph2 = env.last_body<Ph2QMsg>(kPh2QType);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->r, 2);
  EXPECT_EQ(ph2->est2, MaybeValue{9});
}

TEST_F(Fig9Fixture, QuorumAtAnOlderSubRoundReleasesPhase1) {
  auto c = make();
  to_phase1(c, 42);
  fd2.snap.labels.insert(kLy);
  c.on_timer(env, env.timers.front().id);
  ASSERT_EQ(c.current_sub_round(), 2);
  // Only sub-round 1 ever holds {1, 2}; it still realizes the quorum.
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 2, 1, 2, {kLx}, 77);
  EXPECT_EQ(env.count(kPh2QType), 0u);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 42);
  const auto* ph2 = env.last_body<Ph2QMsg>(kPh2QType);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{42});
}

TEST_F(Fig9Fixture, SenderOutsideTheQuorumIsLeftOutOfM) {
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  deliver_ph1q(c, 3, 1, 1, {kLx}, 77);  // carries x, but 3 is not in {1, 2}
  EXPECT_EQ(env.count(kPh2QType), 0u);
  deliver_ph1q(c, 2, 1, 1, {kLx}, 42);
  const auto* ph2 = env.last_body<Ph2QMsg>(kPh2QType);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{42});  // M = {1, 2}: unanimous
}

TEST_F(Fig9Fixture, LabelOrderPicksAmongRealizedQuora) {
  // (x, {1, 2}) with mixed estimates and (y, {2}) with one estimate become
  // realized by the same arrival; x comes first in Label order.
  fd2.snap.quora.emplace(kLy, Multiset<Id>{2});
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx}, 42);
  EXPECT_EQ(env.count(kPh2QType), 0u);
  deliver_ph1q(c, 2, 1, 1, {kLx, kLy}, 77);
  const auto* ph2 = env.last_body<Ph2QMsg>(kPh2QType);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{});  // x's M = {42, 77}, not y's {77}
}

TEST_F(Fig9Fixture, GrownQuoraAreFoundOnTheGuardTimer) {
  fd2.snap.quora.clear();
  fd2.snap.quora.emplace(kLx, Multiset<Id>{1, 2, 3});
  auto c = make();
  to_phase1(c, 42);
  deliver_ph1q(c, 1, 1, 1, {kLx, kLy}, 42);
  deliver_ph1q(c, 2, 1, 1, {kLx, kLy}, 42);
  c.on_timer(env, env.timers.front().id);
  EXPECT_EQ(env.count(kPh2QType), 0u);
  // HΣ certifies (y, {1, 2}); no message arrives, the next poll finds it.
  fd2.snap.quora.emplace(kLy, Multiset<Id>{1, 2});
  c.on_timer(env, env.timers.front().id);
  const auto* ph2 = env.last_body<Ph2QMsg>(kPh2QType);
  ASSERT_NE(ph2, nullptr);
  EXPECT_EQ(ph2->est2, MaybeValue{42});
  EXPECT_EQ(env.count(kPh1QType), 1u);  // found without a sub-round bump
}

TEST_F(Fig9Fixture, DecideRelayedExactlyOnce) {
  auto c = make();
  c.on_start(env);
  c.on_message(env, make_message(kDecideType, DecideMsg{5}));
  c.on_message(env, make_message(kDecideType, DecideMsg{5}));
  EXPECT_EQ(env.count(kDecideType), 1u);
  EXPECT_TRUE(c.decision().decided);
}

// ------------------------------------------------------------- QuorumIndex

TEST(QuorumIndex, IdentifierNeededTwiceTakesItsFirstTwoArrivals) {
  const std::map<Label, Multiset<Id>> quora{{kLx, Multiset<Id>{1, 1, 2}}};
  QuorumIndex idx;
  idx.add(1, 1, {kLx});  // position 0
  idx.add(2, 1, {kLx});  // 1
  EXPECT_FALSE(idx.find(quora));
  idx.add(1, 1, {kLy});  // 2: carries y only
  EXPECT_FALSE(idx.find(quora));
  idx.add(1, 1, {kLx});  // 3
  idx.add(1, 1, {kLx});  // 4: a third instance, not needed
  const auto m = idx.find(quora);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->x, kLx);
  EXPECT_EQ(m->sr, 1);
  EXPECT_EQ(m->positions, (std::vector<std::size_t>{0, 3, 1}));
}

TEST(QuorumIndex, LabelOrderComesBeforeSubRoundOrder) {
  const std::map<Label, Multiset<Id>> quora{{kLx, Multiset<Id>{1}}, {kLy, Multiset<Id>{1}}};
  QuorumIndex idx;
  idx.add(1, 1, {kLy});
  idx.add(1, 3, {kLx});
  idx.add(1, 2, {kLx});
  const auto m = idx.find(quora);
  ASSERT_TRUE(m);
  EXPECT_EQ(m->x, kLx);
  EXPECT_EQ(m->sr, 2);  // the lowest sub-round realizing x, not the first arrival
  EXPECT_EQ(m->positions, (std::vector<std::size_t>{2}));
  EXPECT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx.max_sub_round(), 3);
}

TEST(QuorumIndex, EmptyQuorumIsNeverRealized) {
  // A broken detector's (y, {}) under a label the traffic carries: M would
  // be empty, and Phase 1 reads its first estimate.
  QuorumIndex idx;
  idx.add(1, 1, {kLy});
  EXPECT_FALSE(idx.find({{kLy, Multiset<Id>{}}}));
  const auto m = idx.find({{kLx, Multiset<Id>{}}, {kLy, Multiset<Id>{1}}});
  ASSERT_TRUE(m);
  EXPECT_EQ(m->x, kLy);
}

// The index against the rebuilding reference (support/quorum_scan_ref.h)
// over seeded random traffic: identifiers 1-4, so senders are homonyms and
// quora need multiplicities; sub-rounds 1-4; random, possibly empty, subsets
// of four labels; and h_quora growing between arrivals, now and then by an
// empty multiset, which neither may take as realized. After every arrival
// and every growth both must agree on whether a quorum is realized, on the
// pair (x, sr), on M's estimates and on M itself.
TEST(QuorumIndex, AgreesWithRebuildingReference) {
  const std::vector<Label> pool = {kLx, kLy, Label::of_text("z"), Label::of_text("w")};
  std::size_t realized = 0;
  std::size_t unrealized = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    std::vector<Ph1QMsg> msgs;
    QuorumIndex idx;
    std::map<Label, Multiset<Id>> quora;
    const auto check = [&] {
      const auto ref = ref_scan_quorum(msgs, 1, quora);
      const auto got = idx.find(quora);
      ASSERT_EQ(got.has_value(), ref.found) << "seed " << seed << ", " << msgs.size() << " msgs";
      if (!ref.found) {
        ++unrealized;
        return;
      }
      ++realized;
      EXPECT_EQ(got->x, ref.x) << "seed " << seed;
      EXPECT_EQ(got->sr, ref.sr) << "seed " << seed;
      Multiset<Value> want_est;
      std::vector<std::size_t> want_pos;
      for (const Ph1QMsg* m : ref.quorum) {
        want_est.insert(m->est);
        want_pos.push_back(static_cast<std::size_t>(m - msgs.data()));
      }
      Multiset<Value> got_est;
      for (const std::size_t pos : got->positions) got_est.insert(msgs[pos].est);
      EXPECT_EQ(got_est, want_est) << "seed " << seed;
      EXPECT_EQ(got->positions, want_pos) << "seed " << seed;
    };
    for (int step = 0; step < 30; ++step) {
      if (rng.chance(0.2)) {
        const Label& x = pool[rng.index(pool.size())];
        Multiset<Id> mset;
        for (std::int64_t k = rng.uniform(0, 3); k > 0; --k) {
          mset.insert(static_cast<Id>(rng.uniform(1, 4)));
        }
        if (quora.try_emplace(x, mset).second) check();
      }
      std::set<Label> labels;
      for (const Label& x : pool) {
        if (rng.chance(0.5)) labels.insert(x);
      }
      msgs.push_back(Ph1QMsg{static_cast<Id>(rng.uniform(1, 4)), 1, rng.uniform(1, 4), labels,
                             rng.uniform(1, 3)});
      idx.add(msgs.back().id, msgs.back().sr, msgs.back().labels);
      check();
    }
  }
  EXPECT_GT(realized, 1000u);
  EXPECT_GT(unrealized, 1000u);
}

}  // namespace
}  // namespace hds
