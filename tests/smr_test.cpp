// src/smr/: the repeated-consensus replicated log. Unit tests for the slot
// lifecycle (get-or-create idempotence, buffering, GC-behind-frontier), the
// deterministic KV state machine, in-order application under out-of-order
// commit knowledge, and end-to-end sim runs: stable-leader convergence with
// the one-broadcast-per-batch pin, leader churn, crash of the leader, and
// same-seed reproducibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "consensus/harness.h"
#include "fd/interfaces.h"
#include "smr/harness.h"
#include "smr/instance_manager.h"
#include "smr/kv.h"
#include "smr/replica.h"
#include "smr/types.h"
#include "smr/workload.h"

namespace hds::smr {
namespace {

// ---------------------------------------------------------------- fixtures

class FixedHOmega final : public HOmegaHandle {
 public:
  FixedHOmega(Id leader, std::size_t mult) : out_{leader, mult} {}
  [[nodiscard]] HOmegaOut h_omega() const override { return out_; }

 private:
  HOmegaOut out_;
};

class FakeEnv final : public Env {
 public:
  explicit FakeEnv(Id self) : self_(self) {}
  [[nodiscard]] Id self_id() const override { return self_; }
  void broadcast(Message m) override { sent.push_back(std::move(m)); }
  TimerId set_timer(SimTime delay) override {
    (void)delay;
    return ++next_timer_;
  }
  [[nodiscard]] SimTime local_now() const override { return now; }

  std::vector<Message> sent;
  SimTime now = 0;

 private:
  Id self_;
  TimerId next_timer_ = 0;
};

SmrBatch batch_of(std::int64_t id, std::initializer_list<SmrOp> ops) {
  SmrBatch b;
  b.id = id;
  b.ops = ops;
  return b;
}

// --------------------------------------------------------------------- kv

TEST(SmrKv, AppliesOnceAndDedupsReplays) {
  KvStateMachine kv;
  const SmrBatch b = batch_of(make_batch_id(0, 1), {{7, 1, 42, 5, {}}, {7, 2, 42, 9, {}}});
  const auto first = kv.apply(1, b);
  EXPECT_EQ(first.size(), 2u);
  // The cell is an order-sensitive accumulator: 5, then 5·prime + 9.
  EXPECT_EQ(kv.get(42), static_cast<std::int64_t>(5u * 1099511628211ULL + 9u));
  EXPECT_EQ(kv.applied_seq(7), 2);

  // A re-proposal of the same batch at a later slot is fully deduped: no
  // effective ops, cell untouched.
  const std::int64_t cell = kv.get(42);
  const auto replay = kv.apply(2, b);
  EXPECT_TRUE(replay.empty());
  EXPECT_EQ(kv.get(42), cell);
  EXPECT_EQ(kv.ops_applied(), 2u);
  EXPECT_EQ(kv.ops_deduped(), 2u);
}

TEST(SmrKv, HashIsOrderSensitive) {
  KvStateMachine a, b;
  const SmrOp op1{1, 1, 10, 100, {}};
  const SmrOp op2{2, 1, 10, 200, {}};
  a.apply(1, batch_of(5, {op1}));
  a.apply(2, batch_of(6, {op2}));
  b.apply(1, batch_of(5, {op2}));
  b.apply(2, batch_of(6, {op1}));
  // Same multiset of ops, different order: the log hash must differ and the
  // order-sensitive cell must disagree too.
  EXPECT_NE(a.log_hash(), b.log_hash());
  EXPECT_NE(a.get(10), b.get(10));
  EXPECT_NE(a.state_hash(), b.state_hash());

  KvStateMachine c;
  c.apply(1, batch_of(5, {op1}));
  c.apply(2, batch_of(6, {op2}));
  EXPECT_EQ(a.log_hash(), c.log_hash());
  EXPECT_EQ(a.state_hash(), c.state_hash());
}

// ------------------------------------------------------- instance manager

InstanceManager::Config im_cfg() {
  InstanceManager::Config c;
  c.n = 3;
  c.t = 1;
  c.max_buffered = 4;
  return c;
}

TEST(SmrInstanceManager, GetOrCreateFirstWins) {
  InstanceManager im(im_cfg());
  FixedHOmega fd(kBottomId, 0);  // never leads: engines stay in their guard
  FakeEnv env(1);

  auto* e1 = im.get_or_create(5, 111, fd, env);
  ASSERT_NE(e1, nullptr);
  EXPECT_EQ(im.engines_created(), 1u);

  // Second creation for the same slot returns the same engine; the new
  // proposal is ignored (first creation wins, so concurrent recoveries
  // cannot fork the slot).
  auto* e2 = im.get_or_create(5, 999, fd, env);
  EXPECT_EQ(e1, e2);
  EXPECT_EQ(im.engines_created(), 1u);
}

TEST(SmrInstanceManager, BufferedMessagesReplayIntoEngine) {
  InstanceManager im(im_cfg());
  FixedHOmega fd(kBottomId, 0);
  FakeEnv env(1);

  // A consensus message arriving before the engine exists is buffered...
  EXPECT_TRUE(im.buffer_message(3, make_message("PH1", 0)));
  EXPECT_EQ(im.slot(3).buffered.size(), 1u);

  // ...and consumed at creation.
  im.get_or_create(3, 42, fd, env);
  EXPECT_TRUE(im.slot(3).buffered.empty());

  // Buffer bound: beyond max_buffered the message is dropped.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(im.buffer_message(9, make_message("PH1", 0)));
  EXPECT_FALSE(im.buffer_message(9, make_message("PH1", 0)));

  // A committed slot refuses buffering — late consensus traffic is noise.
  im.slot(7).committed = true;
  EXPECT_FALSE(im.buffer_message(7, make_message("PH1", 0)));
}

TEST(SmrInstanceManager, GcNeverDropsUndecidedSlotsAboveFrontier) {
  InstanceManager im(im_cfg());
  FixedHOmega fd(kBottomId, 0);
  FakeEnv env(1);

  for (std::int64_t s = 1; s <= 10; ++s) {
    auto& rec = im.slot(s);
    rec.has_entry = true;
    rec.batch = batch_of(make_batch_id(0, s), {});
    rec.committed = s <= 6;
  }
  im.get_or_create(4, 1, fd, env);   // engine below the frontier
  im.get_or_create(8, 1, fd, env);   // undecided engine above it
  im.get_or_create(12, 1, fd, env);  // undecided slot with no entry at all

  // Frontier 6, keep 2: records 1..4 go, 5..6 stay for repair, everything
  // above 6 is untouchable no matter its state.
  const std::size_t erased = im.gc(6, 2);
  EXPECT_EQ(erased, 4u);
  EXPECT_EQ(im.records_gced(), 4u);
  for (std::int64_t s = 1; s <= 4; ++s) EXPECT_FALSE(im.contains(s));
  for (std::int64_t s = 5; s <= 10; ++s) EXPECT_TRUE(im.contains(s));
  EXPECT_TRUE(im.contains(12));

  // Engines at or below the frontier are dropped (outcome fixed), engines
  // above it survive.
  EXPECT_EQ(im.slot(5).engine, nullptr);
  EXPECT_NE(im.slot(8).engine, nullptr);
  EXPECT_NE(im.slot(12).engine, nullptr);

  // Idempotent re-run erases nothing further.
  EXPECT_EQ(im.gc(6, 2), 0u);
}

// ---------------------------------------------------------------- workload

TEST(SmrWorkload, ClosedLoopKeepsOneOpOutstanding) {
  WorkloadConfig wc;
  wc.clients = 3;
  wc.seed = 7;
  WorkloadDriver d(wc, /*replica=*/1);
  auto first = d.start(0);
  ASSERT_EQ(first.size(), 3u);
  for (const auto& op : first) EXPECT_EQ(op.seq, 1);
  // Client ids are globally unique across replicas.
  EXPECT_EQ(first[0].client, 1 * kClientStride + 0);

  // Completing (client, 1) hands back exactly that client's op 2; a foreign
  // client or a stale seq yields nothing.
  auto next = d.on_applied(first[1].client, 1, 10);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->client, first[1].client);
  EXPECT_EQ(next->seq, 2);
  EXPECT_FALSE(d.on_applied(first[1].client, 1, 11).has_value());
  EXPECT_FALSE(d.on_applied(12345, 1, 11).has_value());
  EXPECT_EQ(d.ops_done(), 1u);
  ASSERT_EQ(d.latencies().size(), 1u);
  EXPECT_EQ(d.latencies()[0], 10);

  d.stop();
  EXPECT_FALSE(d.on_applied(next->client, 2, 20).has_value());
  EXPECT_EQ(d.ops_done(), 2u);  // completion still counted after stop

  // Determinism: same (seed, replica) ⇒ identical op stream.
  WorkloadDriver d2(wc, 1);
  EXPECT_EQ(d2.start(0), first);
}

// ------------------------------------------------- replica unit behaviour

// Out-of-order commit knowledge: a replica that learns commits for slots
// 3, then 1, then 2 must apply nothing until slot 1 commits, then apply the
// contiguous prefix — never a gap.
TEST(SmrReplica, AppliesInOrderUnderOutOfOrderCommits) {
  SmrConfig sc;
  sc.n = 3;
  sc.t = 1;
  sc.replica = 2;
  FixedHOmega fd(kBottomId, 0);  // this replica never seeks the lease
  WorkloadConfig wc;
  wc.clients = 0;  // pure follower
  SmrReplica rep(sc, fd, wc);
  FakeEnv env(3);
  rep.on_start(env);

  // Epoch 3 is owned by replica 0 (3 % 3 == 0), our fake leader.
  const std::int64_t e = 3;
  auto append = [&](std::int64_t slot, std::vector<SmrCommitRec> commits) {
    SmrAppendMsg a;
    a.epoch = e;
    a.slot = slot;
    a.batch = batch_of(make_batch_id(0, slot),
                       {{static_cast<std::uint64_t>(100 + slot), 1, slot, slot * 10, {}}});
    a.commits = std::move(commits);
    rep.on_message(env, make_message(kSmrAppendType, a));
  };

  append(1, {});
  append(2, {});
  append(3, {});
  EXPECT_EQ(rep.applied_through(), 0);

  // Commit for slot 3 alone: known, but not applicable — slots 1..2 are
  // still undecided.
  append(4, {{3, make_batch_id(0, 3)}});
  EXPECT_EQ(rep.committed_through(), 0);
  EXPECT_EQ(rep.applied_through(), 0);

  // Slot 1 commits: exactly slot 1 applies.
  append(5, {{1, make_batch_id(0, 1)}});
  EXPECT_EQ(rep.applied_through(), 1);
  EXPECT_EQ(rep.kv().get(1), 10);

  // Slot 2 closes the gap: the frontier jumps over the already-known 3.
  append(6, {{2, make_batch_id(0, 2)}});
  EXPECT_EQ(rep.committed_through(), 3);
  EXPECT_EQ(rep.applied_through(), 3);
  EXPECT_EQ(rep.kv().get(3), 30);
  EXPECT_EQ(rep.applied_chain().size(), 3u);
}

// A commit record only acts on a matching body: if the logged batch differs
// from the committed id, the body is dropped and the slot waits for repair
// instead of applying the wrong batch.
TEST(SmrReplica, ConflictingCommitRecordDropsBodyAndWaits) {
  SmrConfig sc;
  sc.n = 3;
  sc.t = 1;
  sc.replica = 2;
  FixedHOmega fd(kBottomId, 0);
  WorkloadConfig wc;
  wc.clients = 0;
  SmrReplica rep(sc, fd, wc);
  FakeEnv env(3);
  rep.on_start(env);

  SmrAppendMsg a;
  a.epoch = 3;
  a.slot = 1;
  a.batch = batch_of(make_batch_id(0, 1), {{100, 1, 1, 10, {}}});
  rep.on_message(env, make_message(kSmrAppendType, a));

  // A later epoch's recovery committed a different batch at slot 1.
  SmrAckMsg k;
  k.epoch = 4;
  k.replica = 1;
  k.commits = {{1, make_batch_id(1, 9)}};
  rep.on_message(env, make_message(kSmrAckType, k));

  // Known committed, but the body we hold is wrong: nothing applied.
  EXPECT_EQ(rep.applied_through(), 0);
  EXPECT_EQ(rep.kv().get(1), 0);

  // Repair delivers the true body (carrying its own commit record): applies.
  SmrAppendMsg fix;
  fix.epoch = 4;
  fix.slot = 1;
  fix.batch = batch_of(make_batch_id(1, 9), {{200, 1, 1, 77, {}}});
  fix.commits = {{1, make_batch_id(1, 9)}};
  rep.on_message(env, make_message(kSmrAppendType, fix));
  EXPECT_EQ(rep.applied_through(), 1);
  EXPECT_EQ(rep.kv().get(1), 77);
}

// ----------------------------------------------------------- sim: end-to-end

TEST(SmrSim, StableLeaderConvergesWithOneBroadcastPerBatch) {
  SmrSimParams p;
  p.ids = ids_unique(3);
  p.t = 1;
  p.workload.clients = 64;
  p.run_for = 8000;
  p.max_time = 20'000;
  p.seed = 11;

  const SmrSimResult res = run_smr_sim(p);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(res.prefix_consistent);
  EXPECT_GT(res.ops_total, 500u);
  EXPECT_GT(res.latency_p99, 0.0);
  EXPECT_GE(res.latency_p99, res.latency_p50);

  // Exactly one leader for the whole run, no recovery consensus, no repair.
  std::uint64_t epochs = 0, recoveries = 0, repairs = 0, appends = 0, batches = 0;
  for (const auto& r : res.replicas) {
    epochs += r.epochs_started;
    recoveries += r.recovery_instances;
    repairs += r.repair_appends_sent;
    appends += r.appends_sent;
    batches = std::max(batches, r.batches_committed);
  }
  EXPECT_EQ(epochs, 1u);
  EXPECT_EQ(recoveries, 0u);
  EXPECT_EQ(repairs, 0u);

  // The tentpole pin: steady state is ONE broadcast per committed batch.
  ASSERT_GT(batches, 50u);
  const double append_ratio = static_cast<double>(appends) / static_cast<double>(batches);
  EXPECT_LE(append_ratio, 1.05) << appends << " appends for " << batches << " batches";
  // And the whole protocol (acks, epoch traffic included) stays within two
  // broadcasts per batch thanks to ack amortization.
  std::uint64_t smr_total = 0;
  for (const auto& [type, cnt] : res.broadcasts_by_type) {
    if (type.rfind("SMR_", 0) == 0) smr_total += cnt;
  }
  EXPECT_LE(static_cast<double>(smr_total) / static_cast<double>(batches), 2.0);
}

TEST(SmrSim, LeaderChurnBeforeStabilizationConverges) {
  SmrSimParams p;
  p.ids = ids_unique(3);
  p.t = 1;
  p.workload.clients = 32;
  p.fd_stabilize = 1500;
  p.noise = OracleHOmega::Noise::kRotating;
  p.run_for = 9000;
  p.max_time = 30'000;
  p.seed = 5;

  const SmrSimResult res = run_smr_sim(p);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(res.prefix_consistent);
  EXPECT_GT(res.ops_total, 0u);
  for (std::size_t a = 1; a < res.replicas.size(); ++a) {
    EXPECT_EQ(res.replicas[a].log_hash, res.replicas[0].log_hash);
    EXPECT_EQ(res.replicas[a].state_hash, res.replicas[0].state_hash);
  }
}

TEST(SmrSim, LeaderCrashFailsOverAndConverges) {
  // Full detector stack (OHPPolling) so the lease reacts to a real crash:
  // process 0 carries the smallest identifier, leads, and dies mid-run.
  SmrSimParams p;
  p.ids = ids_unique(3);
  p.t = 1;
  p.full_stack = true;
  p.workload.clients = 16;
  p.crashes.assign(3, std::nullopt);
  p.crashes[0] = CrashPlan{2500, false};
  p.run_for = 12'000;
  p.max_time = 60'000;
  p.seed = 3;

  const SmrSimResult res = run_smr_sim(p);
  ASSERT_TRUE(res.converged);
  EXPECT_TRUE(res.prefix_consistent);
  EXPECT_GT(res.ops_total, 0u);

  std::uint64_t epochs = 0;
  for (const auto& r : res.replicas) epochs += r.epochs_started;
  EXPECT_GE(epochs, 2u);  // the fail-over minted at least one new epoch

  // The survivors' logs and states are identical.
  const auto& s1 = res.replicas[1];
  const auto& s2 = res.replicas[2];
  EXPECT_EQ(s1.log_hash, s2.log_hash);
  EXPECT_EQ(s1.state_hash, s2.state_hash);
  EXPECT_EQ(s1.applied_through, s2.applied_through);
}

TEST(SmrSim, SameSeedReproducesBitIdenticalRun) {
  SmrSimParams p;
  p.ids = ids_unique(3);
  p.t = 1;
  p.workload.clients = 24;
  p.fd_stabilize = 800;
  p.noise = OracleHOmega::Noise::kRotating;
  p.run_for = 6000;
  p.max_time = 20'000;
  p.seed = 42;

  const SmrSimResult a = run_smr_sim(p);
  const SmrSimResult b = run_smr_sim(p);
  ASSERT_EQ(a.replicas.size(), b.replicas.size());
  EXPECT_EQ(a.ops_total, b.ops_total);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.broadcasts, b.broadcasts);
  for (std::size_t i = 0; i < a.replicas.size(); ++i) {
    EXPECT_EQ(a.replicas[i].applied_chain, b.replicas[i].applied_chain);
    EXPECT_EQ(a.replicas[i].log_hash, b.replicas[i].log_hash);
    EXPECT_EQ(a.replicas[i].latencies, b.replicas[i].latencies);
  }
}

// Exactly-once end to end: every client op completes at most once even
// though acks re-forward pending ops at-least-once.
TEST(SmrSim, DedupMakesForwardingExactlyOnce) {
  SmrSimParams p;
  p.ids = ids_unique(3);
  p.t = 1;
  p.workload.clients = 16;
  p.run_for = 6000;
  p.max_time = 20'000;
  p.seed = 9;

  const SmrSimResult res = run_smr_sim(p);
  ASSERT_TRUE(res.converged);
  // Each completed op was applied exactly once; the state machines agree on
  // how many ops took effect.
  std::uint64_t ops_done = 0;
  for (const auto& r : res.replicas) ops_done += r.ops_done;
  for (const auto& r : res.replicas) {
    EXPECT_EQ(r.ops_applied, res.replicas[0].ops_applied);
    // Applied ≥ completed: in-flight ops at quiesce may commit without a
    // client waiting.
    EXPECT_GE(r.ops_applied, ops_done);
  }
}

}  // namespace
}  // namespace hds::smr
