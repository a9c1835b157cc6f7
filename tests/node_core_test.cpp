// NodeCore in virtual time (tests/support/virtual_net.h): the two lossy
// crash-restart cluster smokes, net_cluster_fig8_lossy_restart and
// net_cluster_smr_lossy_restart, replayed with no socket, thread or wall
// clock. Each slot runs what an hds_node process runs for the smoke's
// flags — the same stack, the same --loss interposer, the same
// barrier-start-run-linger lifecycle — and node 1 is killed mid-run and
// respawned as epoch 1 one supervisor poll later, as hds_cluster
// --supervise does. A run must reach the verdict hds_cluster checks, the
// restarted node must rejoin through REJOIN and get its peers' unacked
// backlog re-sent, and two runs must give byte-identical transcripts.
// NodeCoreBatching pins when a batch leaves: when full, or when the tick its
// frames were queued in ends.
#include "net/node_core.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fd/impl/alive_ranker.h"
#include "net/codec.h"
#include "node_stack.h"
#include "support/virtual_net.h"

namespace hds::net {
namespace {

using testing::VirtualNet;

// The smokes' flags: --n 3 --t 1 --seed 42 --reliable --supervise
// --kill-node 1 --linger-ms 6000 --timeout-ms 60000.
constexpr std::size_t kN = 3;
constexpr std::uint64_t kSeed = 42;
constexpr ProcIndex kVictim = 1;
constexpr SimTime kLingerMs = 6000;
constexpr SimTime kTimeoutMs = 60000;
// hds_cluster's supervisor notices a death within one 20 ms poll.
constexpr SimTime kRespawnMs = 20;
// hds_cluster traces by default, so frames carry the trace context.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;
// hds_node's defaults for the smr stack's observation.
constexpr SimTime kRunForMs = 2000;
constexpr SimTime kSettleMs = 750;
// Each node's lifecycle is evaluated at this period.
constexpr SimTime kSliceMs = 5;

struct Scenario {
  std::string stack;
  double loss = 0;
  SimTime kill_at_ms = 0;
};

// What one hds_node incarnation reports at exit (its result line).
struct NodeResult {
  bool decided = false;
  Value value = 0;
  bool settled = false;
  std::int64_t applied = -1;
  std::uint64_t log_hash = 0;
  std::uint64_t ops_done = 0;
};

// One hds_node process around its core, on the virtual clock.
class NodeProcess {
 public:
  NodeProcess(VirtualNet& net, const Scenario& sc, ProcIndex self, std::uint64_t epoch)
      : net_(net), self_(self) {
    NetConfig cfg;
    cfg.self = self;
    for (std::size_t i = 0; i < kN; ++i) cfg.peers.push_back(NetPeer{static_cast<Id>(i + 1), {}});
    cfg.seed = kSeed + self;
    cfg.reliability.enabled = true;
    cfg.epoch = epoch;
    cfg.trace_capacity = kTraceCapacity;
    node::StackOptions so;
    so.stack = sc.stack;
    so.n = kN;
    so.self = self;
    so.seed = cfg.seed;
    so.proposal = static_cast<Value>(100 + self);
    so.t_known = 1;
    so.redecide_ms = 250;  // hds_node's default with the ARQ on
    node::NodeStack stack = node::build_stack(so);
    cons_ = stack.cons8;
    smr_ = stack.smr;
    loss_ = std::make_unique<node::SymmetricLoss>(sc.loss, node::loss_seed(cfg.seed));
    core_ = &net.boot(self, cfg, std::move(stack.process), loss_.get());
  }

  [[nodiscard]] bool exited() const { return exited_; }
  [[nodiscard]] const NodeResult& result() const { return result_; }
  [[nodiscard]] ProcIndex self() const { return self_; }
  // The core's rel_* counters when this incarnation exited or was killed.
  [[nodiscard]] const RelStats& final_rel() const { return final_rel_; }

  // kill -9 (exit() without a result).
  void exit() {
    final_rel_ = core_->rel_stats();
    exited_ = true;
    net_.kill(self_);
  }

  // hds_node's main thread, one slice at a time.
  void step(SimTime now) {
    if (exited_ || !core_->started()) return;
    if (t0_ < 0) t0_ = now;
    if (cons_ != nullptr) {
      step_fig8(now);
    } else {
      step_smr(now);
    }
  }

 private:
  // Waits for a decision, then lingers so peers still hear this node.
  void step_fig8(SimTime now) {
    if (linger_until_ < 0) {
      if (cons_->decision().decided) {
        result_.decided = true;
        result_.value = cons_->decision().value;
        linger_until_ = now + kLingerMs;
      } else if (now >= t0_ + kTimeoutMs) {
        exit();
      }
    } else if (now >= linger_until_) {
      exit();
    }
  }

  // Client load for kRunForMs, then: settle, linger, settle again, report.
  void step_smr(SimTime now) {
    const Obs cur{smr_->committed_through(), smr_->applied_through(), smr_->kv().log_hash()};
    if (!(cur == last_)) last_change_ = now;
    last_ = cur;
    const bool settled =
        cur.applied == cur.committed && cur.applied > 0 && now - last_change_ >= kSettleMs;
    switch (phase_) {
      case Phase::kLoad:
        if (now >= t0_ + kRunForMs) {
          smr_->stop_workload();
          phase_ = Phase::kSettle;
          last_change_ = now;
        }
        break;
      case Phase::kSettle:
        if (settled || now >= t0_ + kTimeoutMs) {
          phase_ = Phase::kLinger;
          linger_until_ = now + kLingerMs;
        }
        break;
      case Phase::kLinger:
        if (now >= linger_until_) {
          phase_ = Phase::kResettle;
          last_change_ = now;
          resettle_until_ = std::max(t0_ + kTimeoutMs, now + 4 * kSettleMs);
        }
        break;
      case Phase::kResettle:
        if (settled || now >= resettle_until_) {
          result_.settled = settled;
          result_.applied = cur.applied;
          result_.log_hash = cur.log_hash;
          result_.ops_done = smr_->workload().ops_done();
          exit();
        }
        break;
    }
  }

  struct Obs {
    std::int64_t committed = -1;
    std::int64_t applied = -1;
    std::uint64_t log_hash = 0;
    bool operator==(const Obs&) const = default;
  };
  enum class Phase { kLoad, kSettle, kLinger, kResettle };

  VirtualNet& net_;
  ProcIndex self_;
  // The --loss interposer of this incarnation's core (which the VirtualNet owns).
  std::unique_ptr<node::SymmetricLoss> loss_;
  NodeCore* core_ = nullptr;
  MajorityHOmegaConsensus* cons_ = nullptr;
  smr::SmrReplica* smr_ = nullptr;
  SimTime t0_ = -1;
  SimTime linger_until_ = -1;
  SimTime resettle_until_ = -1;
  Phase phase_ = Phase::kLoad;
  Obs last_;
  SimTime last_change_ = 0;
  bool exited_ = false;
  NodeResult result_;
  RelStats final_rel_;
};

std::vector<std::uint64_t> counters(const RelStats& r) {
  return {r.data_sent,     r.retransmits,  r.acked,        r.window_drops,
          r.reorder_drops, r.acks_sent,    r.acks_received, r.dup_frames,
          r.out_of_order,  r.skipped_lost, r.delivered,    r.stale_epoch_drops,
          r.epoch_flushes, r.requeued};
}

struct Replay {
  std::vector<VirtualNet::Sent> sent;
  // Each incarnation's rel_* counters at its end, in boot order.
  std::vector<std::vector<std::uint64_t>> rel;
  std::vector<NodeResult> results;  // the last incarnation of each slot
  RelStats survivors;               // epoch flushes and requeues of the slots never killed
  SimTime respawned_at = -1;
  bool finished = false;  // every node exited before the launcher's deadline
};

Replay replay(const Scenario& sc) {
  VirtualNet net(kN, kSeed);
  std::vector<std::unique_ptr<NodeProcess>> incarnations;
  std::vector<NodeProcess*> slots;
  for (ProcIndex i = 0; i < kN; ++i) {
    incarnations.push_back(std::make_unique<NodeProcess>(net, sc, i, 0));
    slots.push_back(incarnations.back().get());
  }
  Replay r;
  for (SimTime t = 0; t <= kTimeoutMs && !r.finished; t += kSliceMs) {
    net.run_until(t);
    if (t == sc.kill_at_ms && !slots[kVictim]->exited()) slots[kVictim]->exit();
    if (t == sc.kill_at_ms + kRespawnMs) {
      incarnations.push_back(std::make_unique<NodeProcess>(net, sc, kVictim, 1));
      slots[kVictim] = incarnations.back().get();
      r.respawned_at = t;
    }
    for (NodeProcess* p : slots) p->step(t);
    r.finished = std::all_of(slots.begin(), slots.end(), [](auto* p) { return p->exited(); });
  }
  for (const auto& p : incarnations) {
    r.rel.push_back(counters(p->final_rel()));
    if (p->self() != kVictim) {
      r.survivors.epoch_flushes += p->final_rel().epoch_flushes;
      r.survivors.requeued += p->final_rel().requeued;
    }
  }
  for (const NodeProcess* p : slots) r.results.push_back(p->result());
  r.sent = net.sent();
  return r;
}

// Control frames of `tag` on the wire from `from` to `to` at or after `since`.
std::size_t control_frames(const std::vector<VirtualNet::Sent>& sent, std::uint8_t tag,
                           ProcIndex from, ProcIndex to, SimTime since) {
  std::size_t found = 0;
  for (const VirtualNet::Sent& d : sent) {
    if (d.from != from || d.to != to || d.at_ns < since * 1'000'000) continue;
    for (const FrameView& f : split_batch(d.bytes.data(), d.bytes.size())) {
      if (peek_tag(f.data, f.len) == tag) ++found;
    }
  }
  return found;
}

// The verdict hds_cluster checks, plus the rejoin contract, plus replay.
void expect_replays(const Scenario& sc) {
  const Replay a = replay(sc);
  ASSERT_TRUE(a.finished) << "some node was still running at the launcher's deadline";
  if (sc.stack == "fig8") {
    std::set<Value> values;
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_TRUE(a.results[i].decided) << "node " << i << " did not decide";
      values.insert(a.results[i].value);
      EXPECT_GE(a.results[i].value, 100) << "node " << i << " decided a non-proposed value";
      EXPECT_LT(a.results[i].value, static_cast<Value>(100 + kN));
    }
    EXPECT_EQ(values.size(), 1u) << "agreement";
  } else {
    std::set<std::int64_t> frontiers;
    std::set<std::uint64_t> hashes;
    std::uint64_t ops = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      EXPECT_TRUE(a.results[i].settled) << "node " << i << " log did not settle";
      frontiers.insert(a.results[i].applied);
      hashes.insert(a.results[i].log_hash);
      ops += a.results[i].ops_done;
    }
    EXPECT_EQ(frontiers.size(), 1u) << "applied frontiers diverge";
    EXPECT_EQ(hashes.size(), 1u) << "log hashes diverge";
    EXPECT_GT(ops, 0u) << "no client ops completed";
  }

  // The new incarnation probed with REJOIN and was answered; its peers
  // flushed the link and re-sent what the dead incarnation never acked.
  for (ProcIndex peer : {ProcIndex{0}, ProcIndex{2}}) {
    EXPECT_GT(control_frames(a.sent, kTagRejoin, kVictim, peer, a.respawned_at), 0u) << peer;
    EXPECT_GT(control_frames(a.sent, kTagRejoinAck, peer, kVictim, a.respawned_at), 0u) << peer;
  }
  EXPECT_GE(a.survivors.epoch_flushes, 2u);
  EXPECT_GT(a.survivors.requeued, 0u);

  const Replay b = replay(sc);
  EXPECT_EQ(a.rel, b.rel);
  ASSERT_EQ(a.sent.size(), b.sent.size());
  const auto diverge = std::mismatch(a.sent.begin(), a.sent.end(), b.sent.begin());
  EXPECT_TRUE(diverge.first == a.sent.end())
      << "transcripts differ from datagram " << (diverge.first - a.sent.begin()) << " of "
      << a.sent.size();
}

TEST(NodeCoreReplay, Fig8LossyRestart) {
  expect_replays(Scenario{"fig8", 0.2, 400});
}

TEST(NodeCoreReplay, SmrLossyRestart) {
  expect_replays(Scenario{"smr", 0.1, 800});
}

// Broadcasts `count` ALIVEs from on_start, to every node including itself.
class Burst final : public Process {
 public:
  explicit Burst(int count) : count_(count) {}
  void on_start(Env& env) override {
    for (int i = 0; i < count_; ++i) env.broadcast(make_message(AliveRanker::kMsgType, AliveMsg{1}));
  }
  void on_message(Env&, const Message&) override {}

 private:
  int count_;
};

struct BatchCore {
  NodeCore core;
  RelTime zero{};
  BatchCore(bool batching, int count) : core(config(batching), RelTime{}) {
    core.set_process(std::make_unique<Burst>(count));
  }
  static NetConfig config(bool batching) {
    NetConfig cfg;
    cfg.peers = {NetPeer{1, {}}, NetPeer{2, {}}};
    cfg.batching = batching;
    return cfg;
  }
  RelTime at_us(std::int64_t us) const { return zero + std::chrono::microseconds(us); }
};

std::size_t frames_in(const std::vector<Datagram>& ds) {
  std::size_t k = 0;
  for (const Datagram& d : ds) k += d.frames;
  return k;
}

TEST(NodeCoreBatching, FramesWaitForTheEndOfTheirTick) {
  BatchCore b(/*batching=*/true, /*count=*/3);
  b.core.start(b.at_us(300));
  EXPECT_TRUE(b.core.take_datagrams().empty());
  EXPECT_EQ(b.core.next_deadline(), b.at_us(1000));
  b.core.advance(b.at_us(999));
  EXPECT_TRUE(b.core.take_datagrams().empty());
  b.core.advance(b.at_us(1000));
  const std::vector<Datagram> ds = b.core.take_datagrams();
  ASSERT_EQ(ds.size(), 2u);  // one per destination
  EXPECT_EQ(frames_in(ds), 6u);
  EXPECT_EQ(b.core.next_deadline(), std::nullopt);
}

TEST(NodeCoreBatching, FullBatchLeavesAtOnceAndTheRestAtTickEnd) {
  BatchCore b(/*batching=*/true, /*count=*/200);
  b.core.start(b.at_us(300));
  const std::vector<Datagram> full = b.core.take_datagrams();
  ASSERT_FALSE(full.empty());
  for (const Datagram& d : full) EXPECT_GE(d.bytes.size(), NodeCore::kMaxBatchBytes);
  EXPECT_LT(frames_in(full), 400u);
  b.core.advance(b.at_us(1000));
  const std::vector<Datagram> rest = b.core.take_datagrams();
  EXPECT_LE(rest.size(), 2u);
  EXPECT_EQ(frames_in(full) + frames_in(rest), 400u);
}

TEST(NodeCoreBatching, UnbatchedFramesLeaveAtOnce) {
  BatchCore b(/*batching=*/false, /*count=*/3);
  b.core.start(b.at_us(300));
  EXPECT_EQ(b.core.take_datagrams().size(), 6u);
  EXPECT_EQ(b.core.next_deadline(), std::nullopt);
}

TEST(NodeCoreBatching, FlushSealsBeforeTheTickEnds) {
  BatchCore b(/*batching=*/true, /*count=*/3);
  b.core.start(b.at_us(300));
  b.core.flush();
  EXPECT_EQ(frames_in(b.core.take_datagrams()), 6u);
}

}  // namespace
}  // namespace hds::net
