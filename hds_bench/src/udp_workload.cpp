// smr-udp: the replicated log over real sockets. Three NetSystem replicas in
// this process, on loopback with ephemeral ports, each running the
// `hds_node --stack smr` stack (OHPPolling + SmrReplica, ARQ and batching
// on), with 1 ms batch and ack periods instead of hds_node's 5 ms / 25 ms.
// With closed-loop clients the commit latency locks onto the phase offset
// between the followers' ack timers, which is drawn afresh at every start:
// at 5 / 25 ms, p50 moved between 18 and 26 ms and p99 between 27 and 52 ms
// from one seed to the next. An ack period below the batch period (1 / 5 ms)
// steadies latency but trips the leader's repair pacing (two acks without
// progress) thousands of times per run. At 1 / 1 ms both stay steady.
// The lease is re-evaluated every 200 ms, not 20 ms: at 20 ms the replicas'
// first lease checks often see their own start-up HΩ fallback (self), mint
// competing epochs, and in 2 of 60 runs the log then stalled for seconds.
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "fd/impl/ohp_polling.h"
#include "net/net_system.h"
#include "report.h"
#include "sim/stacked_process.h"
#include "smr/replica.h"
#include "smr_common.h"

namespace hdsb {

namespace {

using namespace hds;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kReplicas = 3;
constexpr std::size_t kClients = 32;
constexpr std::size_t kOpSize = 128;
constexpr std::size_t kSetups = 5;

struct Cluster {
  // Declared first so it is destroyed last: the node threads call into the
  // probes until the systems stop.
  std::unique_ptr<Tracing> tr;
  std::vector<std::unique_ptr<net::NetSystem>> sys;
  std::vector<smr::SmrReplica*> reps;
  std::vector<OHPPolling*> fds;

  Cluster() = default;
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() {
    for (auto& s : sys) s->stop();
  }
};

// Binds the sockets, wires the ephemeral ports together and installs the
// stacks. No traffic yet: the HELLO barrier is separate (see run_smr_udp).
std::unique_ptr<Cluster> build(std::uint64_t seed, bool traced) {
  auto c = std::make_unique<Cluster>();
  if (traced) c->tr = std::make_unique<Tracing>(kReplicas);
  std::vector<net::NetPeer> peers(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) peers[i].id = static_cast<Id>(i + 1);
  for (std::size_t i = 0; i < kReplicas; ++i) {
    net::NetConfig cfg;
    cfg.self = i;
    cfg.peers = peers;
    cfg.seed = seed + i;
    cfg.batching = true;
    cfg.reliability.enabled = true;
    c->sys.push_back(std::make_unique<net::NetSystem>(std::move(cfg)));
  }
  for (std::size_t i = 0; i < kReplicas; ++i) {
    for (std::size_t j = 0; j < kReplicas; ++j) {
      if (i != j) c->sys[i]->set_peer_endpoint(j, net::UdpEndpoint{"127.0.0.1", c->sys[j]->local_port()});
    }
  }
  for (std::size_t i = 0; i < kReplicas; ++i) {
    smr::SmrConfig sc;
    sc.n = kReplicas;
    sc.t = 1;
    sc.replica = i;
    sc.batch_interval = 1;
    sc.ack_interval = 1;
    sc.lease_poll = 200;
    sc.guard_poll = 5;
    smr::WorkloadConfig wl;
    wl.clients = kClients;
    wl.op_size = kOpSize;
    wl.seed = seed;
    Tracing* tr = c->tr.get();
    auto stack = std::make_unique<StackedProcess>();
    auto ohp = std::make_unique<OHPPolling>();
    c->fds.push_back(ohp.get());
    stack->add(leaf(std::move(ohp), tr, i, Layer::kFd));
    auto rep = std::make_unique<smr::SmrReplica>(sc, homega(*c->fds[i], tr, i), wl);
    c->reps.push_back(rep.get());
    stack->add(leaf(std::move(rep), tr, i, Layer::kSmr));
    c->sys[i]->set_process(stack_node(std::move(stack), tr, i));
  }
  return c;
}

// Transport counters summed over the replicas.
struct NetTotals {
  std::uint64_t broadcasts = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets = 0;
  std::uint64_t frames = 0;
  std::uint64_t decode_errors = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t rel_acks = 0;

  static NetTotals of(Cluster& c) {
    NetTotals t;
    for (auto& sys : c.sys) {
      const net::NetNetworkStats s = sys->net_stats();
      const net::RelStats rel = sys->rel_stats();
      t.broadcasts += s.broadcasts;
      t.copies_delivered += s.copies_delivered;
      t.bytes_sent += s.bytes_sent;
      t.packets += s.packets_sent;
      t.frames += s.copies_sent;
      t.decode_errors += s.decode_errors;
      t.retransmits += rel.retransmits;
      t.rel_acks += rel.acks_sent;
    }
    return t;
  }
};

}  // namespace

PassResult run_smr_udp(const Options& o, bool traced) {
  PassResult r;
  r.deterministic = false;
  const std::uint64_t seed = run_seed(o.seed, 0);
  const auto warmup = std::chrono::milliseconds(o.quick ? 300 : 2000);
  const int window_s = o.quick ? 1 : std::max(1, static_cast<int>(o.seconds + 0.5));

  // Set up several times; the last cluster is the one measured. setup_s
  // leaves out the HELLO barrier: NetSystem::await_peers re-probes on a
  // 25 ms wait that misses an ack arriving before it starts waiting, so the
  // barrier takes either ~0.5 ms or ~25 ms, in proportions that change from
  // one invocation to the next.
  std::vector<double> setups;
  std::unique_ptr<Cluster> c;
  for (std::size_t k = 0; k < kSetups; ++k) {
    c.reset();
    const std::int64_t ts = mono_ns();
    c = build(seed, traced);
    setups.push_back(seconds_since(ts));
    for (auto& s : c->sys) {
      if (!s->await_peers(std::chrono::milliseconds(5000))) {
        throw std::runtime_error("smr-udp: peer barrier timed out");
      }
    }
  }

  const auto on = [&](std::size_t i, auto fn) {
    return c->sys[i]->query([&](Process&) { return fn(*c->reps[i]); });
  };
  const auto ops_done = [&] {
    std::uint64_t d = 0;
    for (std::size_t i = 0; i < kReplicas; ++i) {
      d += on(i, [](const smr::SmrReplica& rep) { return rep.workload().ops_done(); });
    }
    return d;
  };

  const std::int64_t t_start = mono_ns();
  for (auto& s : c->sys) s->start();
  std::this_thread::sleep_for(warmup);

  // Measured window: per-second completion rates, and the ops and transport
  // counts of the window alone (warm-up and settle excluded).
  std::vector<std::size_t> lat_from(kReplicas);
  for (std::size_t i = 0; i < kReplicas; ++i) {
    lat_from[i] = on(i, [](const smr::SmrReplica& rep) { return rep.workload().latencies().size(); });
  }
  const NetTotals net0 = NetTotals::of(*c);
  std::vector<double> rates;
  const std::uint64_t ops0 = ops_done();
  std::uint64_t prev = ops0;
  auto prev_t = Clock::now();
  const auto window_t0 = prev_t;
  for (int sec = 1; sec <= window_s; ++sec) {
    std::this_thread::sleep_until(window_t0 + std::chrono::seconds(sec));
    const std::uint64_t d = ops_done();
    const auto now = Clock::now();
    rates.push_back(static_cast<double>(d - prev) / std::chrono::duration<double>(now - prev_t).count());
    prev = d;
    prev_t = now;
  }
  const NetTotals net1 = NetTotals::of(*c);
  const auto window_ops = static_cast<double>(prev - ops0);

  // Quiesce, then settle: every replica applied its committed log, all hold
  // the same (frontier, log hash), unchanged for 300 ms.
  for (std::size_t i = 0; i < kReplicas; ++i) {
    on(i, [](smr::SmrReplica& rep) {
      rep.stop_workload();
      return 0;
    });
  }
  std::vector<ReplicaSnapshot> snaps;
  const auto take = [&] {
    snaps.clear();
    for (std::size_t i = 0; i < kReplicas; ++i) {
      snaps.push_back(on(i, [](const smr::SmrReplica& rep) { return snapshot_of(rep, true); }));
    }
  };
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  auto stable_since = Clock::now();
  std::int64_t last_frontier = -1;
  bool settled = false;
  while (!settled && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    take();
    if (!converged(snaps) || snaps[0].applied_through != last_frontier) {
      last_frontier = converged(snaps) ? snaps[0].applied_through : -1;
      stable_since = Clock::now();
      continue;
    }
    settled = Clock::now() - stable_since >= std::chrono::milliseconds(300);
  }
  const double run_s = seconds_since(t_start);
  // Every op completed from the window start on, the drain after it
  // included, so an op stalled across the window end still counts.
  std::vector<SimTime> lats;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    const std::vector<SimTime> l =
        on(i, [](const smr::SmrReplica& rep) { return rep.workload().latencies(); });
    lats.insert(lats.end(), l.begin() + static_cast<std::ptrdiff_t>(lat_from[i]), l.end());
  }

  SimTime timeout_max = 0;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    timeout_max = std::max(
        timeout_max, c->sys[i]->query([&](Process&) { return c->fds[i]->timeout(); }));
  }
  const NetTotals total = NetTotals::of(*c);
  r.substrate.broadcasts = total.broadcasts;
  r.substrate.copies_delivered = total.copies_delivered;
  r.substrate.bytes_sent = total.bytes_sent;
  for (auto& s : c->sys) s->stop();
  if (traced) {
    r.trace.fold(c->tr->probes());
    r.substrate.thread_s = run_s * static_cast<double>(kReplicas);
  }

  const std::int64_t tc = mono_ns();
  check_replicas(snaps, settled);
  r.check_s = seconds_since(tc);

  SmrCounters counters;
  counters.add_run(snaps);
  const std::uint64_t stuck = settled ? 0 : kReplicas * kClients;
  r.runs = 1;
  r.attempted = counters.ops + stuck;
  r.failed = stuck;

  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  r.e2e.push_back({"units_per_s", median(rates), "1/s", rates.size()});
  r.e2e.push_back({"latency_p50", tick_quantile(lats, 0.50), "tick", lats.size()});
  r.e2e.push_back({"latency_p99", tick_quantile(lats, 0.99), "tick", lats.size()});
  r.e2e.push_back({"msgs_per_unit", per(d(net1.broadcasts - net0.broadcasts), window_ops), "count",
                   prev - ops0});
  r.e2e.push_back({"setup_s", median(setups), "s", setups.size()});
  if (traced) {
    add_common_layer_metrics(r);
    counters.emit(r, r.substrate.bytes_sent);
    const auto packets = d(net1.packets - net0.packets);
    r.layers.push_back({"fd.final_timeout_max", d(timeout_max), "tick", 1});
    r.layers.push_back({"net.packets_per_op", per(packets, window_ops), "count", 1});
    r.layers.push_back({"net.frames_per_packet", per(d(net1.frames - net0.frames), packets), "count", 1});
    r.layers.push_back(
        {"net.retransmits_per_op", per(d(net1.retransmits - net0.retransmits), window_ops), "count", 1});
    r.layers.push_back({"net.acks_per_op", per(d(net1.rel_acks - net0.rel_acks), window_ops), "count", 1});
    r.layers.push_back({"net.decode_errors", d(total.decode_errors), "count", 1});
  }
  return r;
}

}  // namespace hdsb
