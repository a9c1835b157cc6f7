// NetSystem integration tests: several NetSystem instances in ONE process,
// each with its own UDP socket on an ephemeral loopback port, exchanging
// real datagrams. This covers the substrate (codec + batching + demux +
// barrier + interposer seam, timers, crash, counters), the paper's
// consensus stacks under real concurrency with homonymous ids, and the
// chaos injector on real sockets — all without fork/exec; the
// multi-process path is exercised by the net_cluster_fig8 ctest entry
// (tools/hds_cluster).
#include "net/net_system.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "common/link_fault.h"
#include "consensus/harness.h"
#include "consensus/majority_homega.h"
#include "consensus/quorum_homega_hsigma.h"
#include "fd/impl/alive_ranker.h"
#include "fd/impl/ohp_polling.h"
#include "fd/oracles.h"
#include "net/codec.h"
#include "net/udp.h"
#include "obs/metrics.h"
#include "sim/stacked_process.h"
#include "support/net_cluster.h"

namespace hds::net {
namespace {

using namespace std::chrono_literals;
using Cluster = hds::testing::NetCluster;

// Broadcasts one ALIVE on start (a registered wire type, so it crosses the
// codec unchanged); counts received copies and remembers the last metadata.
class PingProcess : public Process {
 public:
  explicit PingProcess(bool send_on_start = true) : send_on_start_(send_on_start) {}
  void on_start(Env& env) override {
    if (send_on_start_) env.broadcast(make_message(AliveRanker::kMsgType, AliveMsg{env.self_id()}));
  }
  void on_message(Env&, const Message& m) override {
    if (m.type != AliveRanker::kMsgType) return;
    ++pings;
    last_wire_bytes = m.meta_wire_bytes;
  }

  int pings = 0;
  std::size_t last_wire_bytes = 0;

 private:
  bool send_on_start_;
};

// Node i's ping count, read on its own node thread.
int pings_at(Cluster& c, const std::vector<PingProcess*>& procs, std::size_t i) {
  return c.sys[i]->query([&](Process&) { return procs[i]->pings; });
}

// Installs a PingProcess on every node; returns them by node index.
std::vector<PingProcess*> install_pings(Cluster& c, std::size_t senders) {
  std::vector<PingProcess*> procs;
  for (std::size_t i = 0; i < c.sys.size(); ++i) {
    auto p = std::make_unique<PingProcess>(i < senders);
    procs.push_back(p.get());
    c.sys[i]->set_process(std::move(p));
  }
  return procs;
}

TEST(NetSystem, DeliversBroadcastsAcrossRealSockets) {
  constexpr std::size_t kN = 3;
  Cluster c(ids_unique(kN));
  const auto procs = install_pings(c, kN);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(c.sys[i]->wait_for([&] { return pings_at(c, procs, i) == int{kN}; }, 5s))
        << "node " << i;
  }
  // The ALIVE frame really crossed the wire: size metadata matches the codec.
  const Message sample = make_message(AliveRanker::kMsgType, AliveMsg{1});
  const auto expect_bytes = encoded_frame_size(builtin_codecs(), sample, 0, 1);
  ASSERT_TRUE(expect_bytes.has_value());
  EXPECT_EQ(c.sys[0]->query([&](Process&) { return procs[0]->last_wire_bytes; }), *expect_bytes);

  const NetNetworkStats s0 = c.sys[0]->net_stats();
  EXPECT_EQ(s0.broadcasts, 1u);
  EXPECT_EQ(s0.copies_sent, kN);
  EXPECT_EQ(s0.copies_delivered, kN);  // one from each peer + self
  EXPECT_EQ(s0.copies_lost_link, 0u);
  EXPECT_EQ(s0.decode_errors, 0u);
  EXPECT_GT(s0.bytes_sent, 0u);
  EXPECT_GT(s0.bytes_received, 0u);
  EXPECT_GT(s0.packets_sent, 0u);
  EXPECT_GT(s0.packets_received, 0u);
}

TEST(NetSystem, Fig8StackDecidesOverLoopbackUdp) {
  constexpr std::size_t kN = 3;
  obs::MetricsRegistry metrics;
  Cluster c(ids_unique(kN), /*seed=*/7, /*batching=*/true, &metrics);
  std::vector<MajorityHOmegaConsensus*> cons(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    auto* fd = stack->add(std::make_unique<OHPPolling>());
    MajorityConsensusConfig ccfg;
    ccfg.n = kN;
    ccfg.t = 1;
    ccfg.proposal = static_cast<Value>(100 + i);
    ccfg.guard_poll = 5;
    cons[i] = stack->add(std::make_unique<MajorityHOmegaConsensus>(ccfg, *fd));
    c.sys[i]->set_process(std::move(stack));
  }
  ASSERT_TRUE(c.barrier());
  c.start_all();
  std::vector<Value> values;
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(c.sys[i]->wait_for(
        [&] {
          return c.sys[i]->query([&](Process&) { return cons[i]->decision(); }).decided;
        },
        30s))
        << "node " << i << " did not decide";
    values.push_back(c.sys[i]->query([&](Process&) { return cons[i]->decision(); }).value);
  }
  for (const Value v : values) {
    EXPECT_EQ(v, values.front());  // agreement
    EXPECT_GE(v, 100);             // validity: someone proposed it
    EXPECT_LT(v, static_cast<Value>(100 + kN));
  }
  // The registry observed real traffic, including batch occupancy.
  const std::string dump = metrics.to_json();
  EXPECT_NE(dump.find("udp_batch_frames"), std::string::npos);
  EXPECT_NE(dump.find("udp_bytes_sent_total"), std::string::npos);
}

// Drops every ALIVE copy from node 0 to node 1; node 1 must still hear
// the others, and node 0's stats must attribute the loss to the link.
class DropInterposer : public LinkInterposer {
 public:
  CopyVerdict on_copy(SimTime, ProcIndex from, ProcIndex to, const std::string& type) override {
    CopyVerdict v;
    if (from == 0 && to == 1 && type == AliveRanker::kMsgType) {
      v.drop = true;
      ++dropped;
    }
    return v;
  }
  std::atomic<int> dropped{0};
};

TEST(NetSystem, InterposerDropsAreCountedAndNotDelivered) {
  constexpr std::size_t kN = 3;
  DropInterposer drop;  // outlives the cluster's threads
  Cluster c(ids_unique(kN));
  c.sys[0]->set_interposer(&drop);
  const auto procs = install_pings(c, kN);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  // Node 2 hears everyone; node 1 must end one short (node 0's copy dropped).
  EXPECT_TRUE(c.sys[2]->wait_for([&] { return pings_at(c, procs, 2) == int{kN}; }, 5s));
  EXPECT_TRUE(c.sys[1]->wait_for([&] { return pings_at(c, procs, 1) == int{kN} - 1; }, 5s));
  std::this_thread::sleep_for(100ms);  // would-be late arrival window
  EXPECT_EQ(pings_at(c, procs, 1), int{kN} - 1);
  EXPECT_EQ(drop.dropped.load(), 1);
  EXPECT_EQ(c.sys[0]->net_stats().copies_lost_link, 1u);
}

// Drops the FIRST transmission attempt of every ALIVE copy on every link.
// Without the ARQ layer the broadcast would arrive nowhere; with it every
// retransmission passes and delivery must be exactly-once anyway.
class DropFirstAttempt : public LinkInterposer {
 public:
  CopyVerdict on_copy(SimTime, ProcIndex from, ProcIndex to, const std::string& type) override {
    CopyVerdict v;
    if (type != AliveRanker::kMsgType) return v;
    std::lock_guard lk(mu_);
    v.drop = seen_.insert({from, to}).second;  // newly seen link -> drop
    if (v.drop) ++dropped_;
    return v;
  }
  int dropped() const {
    std::lock_guard lk(mu_);
    return dropped_;
  }

 private:
  mutable std::mutex mu_;
  std::set<std::pair<ProcIndex, ProcIndex>> seen_;
  int dropped_ = 0;
};

TEST(NetSystem, ReliabilityRecoversDroppedCopiesExactlyOnce) {
  constexpr std::size_t kN = 3;
  std::vector<DropFirstAttempt> drops(kN);  // outlive the cluster's threads
  Cluster c(ids_unique(kN), /*seed=*/11, /*batching=*/true, /*metrics=*/nullptr,
            /*reliable=*/true);
  for (std::size_t i = 0; i < kN; ++i) c.sys[i]->set_interposer(&drops[i]);
  const auto procs = install_pings(c, kN);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(c.sys[i]->wait_for([&] { return pings_at(c, procs, i) == int{kN}; }, 10s))
        << "node " << i << " did not recover the dropped copies";
  }
  // Exactly-once above the layer: late retransmit crossings are deduped.
  std::this_thread::sleep_for(200ms);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(pings_at(c, procs, i), int{kN});
    EXPECT_TRUE(c.sys[i]->reliable());
  }
  // Every first attempt really was dropped (kN outgoing links per node —
  // the loopback self copy is judged like any other) and the ARQ timer
  // re-sent it.
  const RelStats s0 = c.sys[0]->rel_stats();
  EXPECT_EQ(drops[0].dropped(), static_cast<int>(kN));
  EXPECT_GT(s0.retransmits, 0u);
  EXPECT_GE(s0.delivered, static_cast<std::uint64_t>(kN) - 1);
  EXPECT_EQ(c.sys[0]->net_stats().copies_lost_link, static_cast<std::uint64_t>(kN));
}

TEST(NetSystem, GarbageDatagramsCountAsDecodeErrorsNotCrashes) {
  Cluster c(ids_unique(2));
  for (auto& s : c.sys) s->set_process(std::make_unique<PingProcess>());
  ASSERT_TRUE(c.barrier());
  c.start_all();

  UdpSocket attacker;
  attacker.open(UdpEndpoint{"127.0.0.1", 0});
  const UdpEndpoint victim{"127.0.0.1", c.sys[0]->local_port()};
  const std::uint8_t junk[] = {'H', 'B', 9, 9, 9, 9};  // bad envelope version
  const std::uint8_t noise[] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(attacker.send_to(victim, junk, sizeof junk));
  ASSERT_TRUE(attacker.send_to(victim, noise, sizeof noise));
  EXPECT_TRUE(c.sys[0]->wait_for([&] { return c.sys[0]->net_stats().decode_errors >= 2; }, 5s));
  // The substrate shrugged it off: normal traffic still flows.
  EXPECT_TRUE(c.sys[0]->wait_for([&] { return c.sys[0]->net_stats().copies_delivered >= 1; }, 5s));
}

TEST(NetSystem, UnbatchedModeStillDelivers) {
  constexpr std::size_t kN = 2;
  Cluster c(ids_unique(kN), /*seed=*/3, /*batching=*/false);
  const auto procs = install_pings(c, kN);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(c.sys[i]->wait_for([&] { return pings_at(c, procs, i) == int{kN}; }, 5s));
  }
}

TEST(NetSystem, BarrierReturnsAsSoonAsEveryPeerIsHeard) {
  // The barrier waits on "every peer heard", so a probe or ack that lands
  // between the probe send and the wait ends it at once instead of costing
  // a full 25 ms probe round. The three nodes enter the barrier together,
  // as the daemons of a real cluster do, so peers' probes cross.
  std::vector<double> ms;
  for (int round = 0; round < 20; ++round) {
    Cluster c(ids_unique(3), /*seed=*/static_cast<std::uint64_t>(round + 1));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::future<bool>> done;
    for (auto& s : c.sys) {
      done.push_back(std::async(std::launch::async, [&s] { return s->await_peers(5s); }));
    }
    for (auto& d : done) ASSERT_TRUE(d.get());
    ms.push_back(std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::nth_element(ms.begin(), ms.begin() + 10, ms.end());
  EXPECT_LT(ms[10], 10.0) << "median barrier time in ms";
}

// Counts timer fires and ALIVE deliveries in atomics, so the test thread can
// read them even after the node crashed (query() then throws).
class TimerProbe : public Process {
 public:
  explicit TimerProbe(SimTime timer_ms, bool send_on_timer)
      : timer_ms_(timer_ms), send_on_timer_(send_on_timer) {}
  void on_start(Env& env) override {
    if (timer_ms_ >= 0) env.set_timer(timer_ms_);
  }
  void on_timer(Env& env, TimerId) override {
    ++timers;
    if (send_on_timer_) env.broadcast(make_message(AliveRanker::kMsgType, AliveMsg{env.self_id()}));
  }
  void on_message(Env&, const Message& m) override {
    if (m.type == AliveRanker::kMsgType) ++pings;
  }

  std::atomic<int> timers{0};
  std::atomic<int> pings{0};

 private:
  SimTime timer_ms_;
  bool send_on_timer_;
};

TEST(NetSystem, TimersFire) {
  Cluster c(ids_unique(1));
  auto p = std::make_unique<TimerProbe>(/*timer_ms=*/10, /*send_on_timer=*/false);
  auto* probe = p.get();
  c.sys[0]->set_process(std::move(p));
  ASSERT_TRUE(c.barrier());
  c.start_all();
  EXPECT_TRUE(c.sys[0]->wait_for([&] { return probe->timers >= 1; }, 5s));
}

TEST(NetSystem, CrashedNodeStopsReceiving) {
  Cluster c(ids_unique(2));
  auto a = std::make_unique<TimerProbe>(/*timer_ms=*/30, /*send_on_timer=*/true);
  auto* ap = a.get();
  auto b = std::make_unique<TimerProbe>(/*timer_ms=*/-1, /*send_on_timer=*/false);
  auto* bp = b.get();
  c.sys[0]->set_process(std::move(a));
  c.sys[1]->set_process(std::move(b));
  ASSERT_TRUE(c.barrier());
  c.start_all();
  c.sys[1]->crash();
  EXPECT_TRUE(c.sys[1]->is_crashed());
  EXPECT_THROW(c.sys[1]->query([](Process&) {}), std::runtime_error);
  // Node 0 hears its own post-crash broadcast; node 1 hears nothing, though
  // its socket still receives the datagram.
  ASSERT_TRUE(c.sys[0]->wait_for([&] { return ap->pings >= 1; }, 5s));
  std::this_thread::sleep_for(50ms);  // node 1's copy has landed by now
  EXPECT_EQ(bp->pings, 0);
  EXPECT_EQ(c.sys[1]->net_stats().copies_delivered, 0u);
}

TEST(NetSystem, MetricsRegistryMirrorsNetStats) {
  constexpr std::size_t kN = 3;
  obs::MetricsRegistry reg;
  Cluster c(ids_unique(kN), /*seed=*/1, /*batching=*/true, &reg);
  const auto procs = install_pings(c, kN);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  // Each node broadcasts once; node 0 hears all three copies.
  ASSERT_TRUE(c.sys[0]->wait_for([&] { return pings_at(c, procs, 0) == 3; }, 5s));
  const NetNetworkStats s0 = c.sys[0]->net_stats();
  EXPECT_EQ(s0.broadcasts, 1u);
  EXPECT_EQ(s0.broadcasts_by_type.at(AliveRanker::kMsgType), 1u);
  EXPECT_EQ(s0.copies_sent, kN);
  EXPECT_EQ(s0.copies_delivered, kN);
  EXPECT_EQ(reg.counter_total("udp_broadcasts_total"), s0.broadcasts);
  EXPECT_EQ(reg.counter_total("udp_copies_delivered_total"), s0.copies_delivered);
}

TEST(NetSystem, BroadcastReachesAllNodesIncludingSelf) {
  constexpr std::size_t kN = 3;
  Cluster c(ids_unique(kN));
  const auto procs = install_pings(c, /*senders=*/1);  // node 0 only
  ASSERT_TRUE(c.barrier());
  c.start_all();
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(c.sys[i]->wait_for([&] { return pings_at(c, procs, i) >= 1; }, 5s)) << i;
  }
  std::this_thread::sleep_for(100ms);  // would-be late duplicate window
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(pings_at(c, procs, i), 1) << i;
}

TEST(NetSystem, NetStatsCountBroadcastsAndDeliveries) {
  constexpr std::size_t kN = 3;
  Cluster c(ids_unique(kN));
  const auto procs = install_pings(c, kN);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  // Each node broadcasts once; each copy reaches all 3 nodes.
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_TRUE(c.sys[i]->wait_for([&] { return pings_at(c, procs, i) == int{kN}; }, 5s)) << i;
  }
  std::uint64_t broadcasts = 0, sent = 0, delivered = 0, alive_broadcasts = 0;
  for (auto& s : c.sys) {
    const NetNetworkStats st = s->net_stats();
    broadcasts += st.broadcasts;
    sent += st.copies_sent;
    delivered += st.copies_delivered;
    alive_broadcasts += st.broadcasts_by_type.at(AliveRanker::kMsgType);
    EXPECT_EQ(st.copies_lost_link, 0u);
  }
  EXPECT_EQ(broadcasts, kN);
  EXPECT_EQ(alive_broadcasts, kN);
  EXPECT_EQ(sent, kN * kN);
  EXPECT_EQ(delivered, kN * kN);
}

// Fig. 6 (◇HP̄ / HΩ) ▸ Fig. 8 consensus on 4 NetSystems with ids
// {1, 1, 2, 3} (a homonymous pair); node 3 crashes 30 ms in. `interposer`,
// if set, judges every node's copies. The three correct nodes must decide
// one proposed value.
void expect_homonymous_fig8_decides(LinkInterposer* interposer, std::uint64_t seed) {
  constexpr std::size_t kN = 4;
  Cluster c({1, 1, 2, 3}, seed);
  std::vector<MajorityHOmegaConsensus*> cons(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    auto* fd = stack->add(std::make_unique<OHPPolling>());
    MajorityConsensusConfig ccfg;
    ccfg.n = kN;
    ccfg.t = 1;
    ccfg.proposal = static_cast<Value>(100 + i);
    ccfg.guard_poll = 5;
    cons[i] = stack->add(std::make_unique<MajorityHOmegaConsensus>(ccfg, *fd));
    c.sys[i]->set_process(std::move(stack));
    if (interposer != nullptr) c.sys[i]->set_interposer(interposer);
  }
  ASSERT_TRUE(c.barrier());
  c.start_all();
  std::this_thread::sleep_for(30ms);
  c.sys[3]->crash();

  auto decision = [&](std::size_t i) {
    return c.sys[i]->query([&](Process&) { return cons[i]->decision(); });
  };
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(c.sys[i]->wait_for([&] { return decision(i).decided; }, 30s, 20ms))
        << "node " << i << " did not decide";
  }
  const Value v = decision(0).value;
  for (std::size_t i = 1; i < 3; ++i) EXPECT_EQ(decision(i).value, v);  // agreement
  EXPECT_GE(v, 100);                                                  // validity
  EXPECT_LE(v, 103);
}

TEST(NetSystem, HomonymousFullStackDecidesDespiteCrash) {
  expect_homonymous_fig8_decides(/*interposer=*/nullptr, /*seed=*/21);
}

// Fig. 9 over HΩ + HΣ oracles shared by 4 NetSystems: the oracles read a
// wall-clock millisecond clock and a crash the test enacts itself.
TEST(NetSystem, QuorumConsensusOverWallClockOracles) {
  constexpr std::size_t kN = 4;
  const std::vector<Id> ids = {1, 1, 2, 3};
  GroundTruth gt;
  gt.ids = ids;
  gt.correct = {true, true, true, false};  // node 3 crashes below
  const auto epoch = std::chrono::steady_clock::now();
  ClockFn clock = [epoch] {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  };
  OracleHOmega fd1(gt, clock, /*stabilize_at=*/60);
  OracleHSigma fd2(gt, clock, /*stabilize_at=*/80);

  Cluster c(ids, /*seed=*/31);
  std::vector<QuorumConsensus*> cons(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    QuorumConsensusConfig ccfg;
    ccfg.proposal = static_cast<Value>(500 + i);
    ccfg.guard_poll = 5;
    auto proc = std::make_unique<QuorumConsensus>(ccfg, fd1.handle(i), fd2.handle(i));
    cons[i] = proc.get();
    c.sys[i]->set_process(std::move(proc));
  }
  ASSERT_TRUE(c.barrier());
  c.start_all();
  std::this_thread::sleep_for(25ms);
  c.sys[3]->crash();

  auto decision = [&](std::size_t i) {
    return c.sys[i]->query([&](Process&) { return cons[i]->decision(); });
  };
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(c.sys[i]->wait_for([&] { return decision(i).decided; }, 30s, 20ms))
        << "node " << i << " did not decide";
  }
  const Value v = decision(0).value;
  for (std::size_t i = 1; i < 3; ++i) EXPECT_EQ(decision(i).value, v);
  EXPECT_GE(v, 500);
  EXPECT_LE(v, 503);
}

// ------------------------------------------- chaos injector on real sockets

TEST(NetChaos, PartitionClauseDropsCopiesAndCountsThem) {
  chaos::FaultPlan plan;
  chaos::FaultClause part;
  part.kind = chaos::ClauseKind::kPartition;
  part.links.src = {0};
  plan.clauses = {part};  // never heals: every copy node 0 sends is dropped
  chaos::FaultInjector inj(plan, {1, 2, 3}, 5);
  Cluster c(ids_unique(3));
  const auto procs = install_pings(c, 3);
  for (auto& s : c.sys) s->set_interposer(&inj);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  // Nodes 1 and 2 broadcast cleanly: everyone hears exactly those two.
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(c.sys[i]->wait_for([&] { return pings_at(c, procs, i) == 2; }, 5s)) << i;
  }
  std::this_thread::sleep_for(100ms);  // would-be late arrival window
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(pings_at(c, procs, i), 2);
  const NetNetworkStats s0 = c.sys[0]->net_stats();
  EXPECT_EQ(s0.broadcasts, 1u);
  EXPECT_EQ(s0.copies_sent, 0u);
  EXPECT_EQ(s0.copies_lost_link, 3u);
  EXPECT_EQ(inj.stats().copies_dropped, 3u);
}

TEST(NetChaos, DelayClauseHoldsDeliveryBack) {
  chaos::FaultPlan plan;
  chaos::FaultClause slow;
  slow.kind = chaos::ClauseKind::kDelay;
  slow.delay = 80;  // ms on this substrate
  plan.clauses = {slow};
  chaos::FaultInjector inj(plan, {1, 2}, 5);
  Cluster c(ids_unique(2));
  const auto procs = install_pings(c, 1);
  for (auto& s : c.sys) s->set_interposer(&inj);
  ASSERT_TRUE(c.barrier());
  const auto t0 = std::chrono::steady_clock::now();
  c.start_all();
  ASSERT_TRUE(c.sys[1]->wait_for([&] { return pings_at(c, procs, 1) >= 1; }, 5s));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - t0);
  EXPECT_GE(elapsed.count(), 80);
  EXPECT_EQ(inj.stats().copies_delayed, 2u);
}

TEST(NetChaos, DuplicateClauseDeliversExtraCopies) {
  chaos::FaultPlan plan;
  chaos::FaultClause dup;
  dup.kind = chaos::ClauseKind::kDuplicate;
  dup.prob = 1.0;
  dup.count = 2;
  dup.delay = 2;
  plan.clauses = {dup};
  chaos::FaultInjector inj(plan, {1, 2}, 5);
  Cluster c(ids_unique(2));
  const auto procs = install_pings(c, 1);
  for (auto& s : c.sys) s->set_interposer(&inj);
  ASSERT_TRUE(c.barrier());
  c.start_all();
  // One broadcast, two links, each original copy trailed by 2 duplicates.
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(c.sys[i]->wait_for([&] { return pings_at(c, procs, i) == 3; }, 5s)) << i;
  }
  std::this_thread::sleep_for(100ms);
  for (std::size_t i = 0; i < 2; ++i) EXPECT_EQ(pings_at(c, procs, i), 3);
  const NetNetworkStats s0 = c.sys[0]->net_stats();
  EXPECT_EQ(s0.copies_sent, 6u);  // originals plus duplicates
  EXPECT_EQ(s0.copies_duplicated, 4u);
  EXPECT_EQ(inj.stats().copies_duplicated, 4u);
}

// The Fig. 8 stack's admissible adversary on real sockets: a shared
// injector inflates every copy's delay for the first 200 ms (transient
// pre-stabilization asynchrony) on top of the crash of node 3 (within t).
TEST(NetChaos, AdmissiblePlanConsensusStillDecides) {
  chaos::FaultPlan plan;
  chaos::FaultClause slow;
  slow.kind = chaos::ClauseKind::kDelay;
  slow.delay = 3;
  slow.until = 200;
  plan.clauses = {slow};
  chaos::FaultInjector inj(plan, {1, 1, 2, 3}, 5);  // outlives the cluster's threads
  expect_homonymous_fig8_decides(&inj, /*seed=*/23);
  EXPECT_GT(inj.stats().copies_delayed, 0u);
}

TEST(NetChaos, RejectsInterposerInstallAfterStart) {
  Cluster c(ids_unique(1));
  c.sys[0]->set_process(std::make_unique<PingProcess>());
  c.start_all();
  chaos::FaultInjector inj(chaos::FaultPlan{}, {1}, 5);
  EXPECT_THROW(c.sys[0]->set_interposer(&inj), std::logic_error);
}

}  // namespace
}  // namespace hds::net
