// The four workloads on the discrete-event simulator. Each assembles its
// systems from the library's public entry points, exactly as the harnesses
// in src/consensus and src/smr do, with the timing proxies slotted in when
// the pass is traced. Wall time covers start() to the end of the run; checks
// are timed separately, and set-up is measured on its own (setup_median).
#include <time.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "consensus/harness.h"
#include "consensus/quorum_homega_hsigma.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/impl/ohp_polling.h"
#include "fd/oracles.h"
#include "obs/qos.h"
#include "report.h"
#include "sim/stacked_process.h"
#include "sim/system.h"
#include "smr/replica.h"
#include "smr_common.h"
#include "spec/consensus_checkers.h"
#include "spec/fd_checkers.h"

namespace hdsb {

namespace {

using namespace hds;

constexpr std::size_t kSetupSamples = 16;

double per(double a, double b) { return b > 0 ? a / b : 0.0; }

void add_substrate(PassResult& r, const NetworkStats& s) {
  r.substrate.broadcasts += s.broadcasts;
  r.substrate.copies_delivered += s.copies_delivered;
  r.substrate.bytes_sent += s.bytes_sent;
}

// Folds one traced run into the pass: `threads` callback threads were busy
// or waiting for `wall` seconds.
void fold_trace(PassResult& r, const Tracing* tr, double wall, std::size_t threads) {
  if (tr == nullptr) return;
  r.trace.fold(tr->probes());
  r.substrate.thread_s += wall * static_cast<double>(threads);
}

// Median time of `build(i)` over kSetupSamples assemblies built back to back
// (destruction untimed). The set-up of a run that follows another run pays
// first-touch page faults and, at 4 shards, thread start-up on idle vCPUs;
// that made its median drift by a quarter between two sets of runs minutes
// apart, while this stays within a few percent.
template <typename Build>
double setup_median(Build build) {
  std::vector<double> v;
  for (std::size_t i = 0; i < kSetupSamples; ++i) {
    const std::int64_t t0 = mono_ns();
    const auto assembled = build(i);
    v.push_back(seconds_since(t0));
  }
  return median(v);
}

// ------------------------------------------------------------------ SMR

struct SmrSpec {
  std::size_t n = 3;
  std::size_t t = 1;
  std::size_t clients = 64;
  bool full_stack = false;
  SimTime run_for = 8000;
  SimTime max_time = 32'000;
  SimTime crash_at = 0;  // > 0: replica 0, the first leader, crashes then
  std::size_t base_runs = 0;
  std::size_t quick_runs = 0;
};

struct SmrAssembly {
  std::unique_ptr<System> sys;
  std::optional<OracleHOmega> oracle;
  std::vector<smr::SmrReplica*> reps;
  std::vector<OHPPolling*> fds;  // null under the oracle
};

std::unique_ptr<SmrAssembly> smr_build(const SmrSpec& s, std::uint64_t seed, Tracing* tr) {
  auto a = std::make_unique<SmrAssembly>();
  SystemConfig cfg;
  cfg.ids = ids_unique(s.n);
  if (s.full_stack) {
    PartialSyncTiming::Params net;
    net.gst = 150;
    net.delta = 3;
    cfg.timing = std::make_unique<PartialSyncTiming>(net);
  } else {
    cfg.timing = std::make_unique<AsyncTiming>(1, 8);
  }
  cfg.crashes = crashes_none(s.n);
  if (s.crash_at > 0) cfg.crashes[0] = CrashPlan{s.crash_at, false};
  cfg.seed = seed;
  a->sys = std::make_unique<System>(std::move(cfg));
  System& sys = *a->sys;
  if (!s.full_stack) {
    a->oracle.emplace(GroundTruth::from(sys), [&sys] { return sys.now(); }, 0,
                      OracleHOmega::Noise::kNone);
  }
  a->reps.resize(s.n);
  a->fds.resize(s.n, nullptr);
  for (ProcIndex i = 0; i < s.n; ++i) {
    smr::SmrConfig sc;
    sc.n = s.n;
    sc.t = s.t;
    sc.replica = i;
    smr::WorkloadConfig wl;
    wl.clients = s.clients;
    wl.seed = seed;
    if (s.full_stack) {
      auto stack = std::make_unique<StackedProcess>();
      auto fd = std::make_unique<OHPPolling>();
      a->fds[i] = fd.get();
      stack->add(leaf(std::move(fd), tr, i, Layer::kFd));
      auto rep = std::make_unique<smr::SmrReplica>(sc, homega(*a->fds[i], tr, i), wl);
      a->reps[i] = rep.get();
      stack->add(leaf(std::move(rep), tr, i, Layer::kSmr));
      sys.set_process(i, stack_node(std::move(stack), tr, i));
    } else {
      auto rep = std::make_unique<smr::SmrReplica>(sc, homega(a->oracle->handle(i), tr, i), wl);
      a->reps[i] = rep.get();
      sys.set_process(i, leaf(std::move(rep), tr, i, Layer::kSmr));
    }
  }
  return a;
}

PassResult run_smr(const SmrSpec& s, const Options& o, bool traced) {
  PassResult r;
  SmrCounters counters;
  Fnv fp;
  std::vector<double> rates;
  std::vector<double> unavail;
  std::vector<SimTime> lats;
  SimTime timeout_max = 0;
  const std::size_t runs = scaled_runs(o, s.base_runs, s.quick_runs);
  for (std::size_t k = 0; k < runs; ++k) {
    const std::uint64_t seed = run_seed(o.seed, k);
    std::unique_ptr<Tracing> tr = traced ? std::make_unique<Tracing>(s.n) : nullptr;
    const std::unique_ptr<SmrAssembly> a = smr_build(s, seed, tr.get());
    System& sys = *a->sys;
    const std::vector<smr::SmrReplica*>& reps = a->reps;

    const std::int64_t t0 = mono_ns();
    sys.start();
    const SimTime quiesce = (s.run_for * 3) / 4;
    if (s.crash_at > 0) {
      // 1-tick slices from the crash to quiesce: the longest stretch with no
      // completion at any correct replica is the time without service.
      sys.run_until(s.crash_at);
      const auto done = [&] {
        std::uint64_t d = 0;
        for (ProcIndex i = 0; i < s.n; ++i) {
          if (sys.is_correct(i)) d += reps[i]->workload().ops_done();
        }
        return d;
      };
      std::uint64_t prev = done();
      SimTime last = s.crash_at;
      SimTime gap = 0;
      for (SimTime t = s.crash_at + 1; t <= quiesce; ++t) {
        sys.run_until(t);
        const std::uint64_t d = done();
        if (d != prev) {
          gap = std::max(gap, t - last);
          last = t;
          prev = d;
        }
      }
      unavail.push_back(static_cast<double>(std::max(gap, quiesce - last)));
    } else {
      sys.run_until(quiesce);
    }
    for (smr::SmrReplica* rep : reps) rep->stop_workload();
    sys.run_until(s.run_for);
    std::vector<ReplicaSnapshot> snaps;
    const auto take = [&] {
      snaps.clear();
      for (ProcIndex i = 0; i < s.n; ++i) snaps.push_back(snapshot_of(*reps[i], sys.is_correct(i)));
    };
    take();
    while (sys.now() < s.max_time && !converged(snaps)) {
      sys.run_until(std::min(s.max_time, sys.now() + 250));
      take();
    }
    const double wall = seconds_since(t0);
    fold_trace(r, tr.get(), wall, 1);

    const std::int64_t tc = mono_ns();
    const bool ok = converged(snaps);
    check_replicas(snaps, ok);
    r.check_s += seconds_since(tc);

    ++r.runs;
    ++r.attempted;
    if (!ok) ++r.failed;
    const std::uint64_t ops_before = counters.ops;
    counters.add_run(snaps);
    rates.push_back(static_cast<double>(counters.ops - ops_before) / wall);
    add_substrate(r, sys.net_stats());
    fp.add(ok);
    fp.add(sys.now());
    fp.add(sys.net_stats().broadcasts);
    for (ProcIndex i = 0; i < s.n; ++i) {
      fp.add(snaps[i].applied_through);
      fp.add(snaps[i].log_hash);
      fp.add(snaps[i].state_hash);
      fp.add(snaps[i].ops_done);
      if (!sys.is_correct(i)) continue;
      for (SimTime l : reps[i]->workload().latencies()) {
        lats.push_back(l);
        fp.add(l);
      }
      if (a->fds[i] != nullptr) timeout_max = std::max(timeout_max, a->fds[i]->timeout());
    }
  }

  r.fingerprint = fp.h;
  const auto n_runs = static_cast<std::uint64_t>(runs);
  r.e2e.push_back({"units_per_s", median(rates), "1/s", n_runs});
  r.e2e.push_back({"latency_p50", tick_quantile(lats, 0.50), "tick", lats.size()});
  r.e2e.push_back({"latency_p99", tick_quantile(lats, 0.99), "tick", lats.size()});
  r.e2e.push_back({"msgs_per_unit",
                   per(static_cast<double>(r.substrate.broadcasts), static_cast<double>(counters.ops)),
                   "count", counters.ops});
  r.e2e.push_back({"setup_s",
                   setup_median([&](std::size_t i) { return smr_build(s, run_seed(o.seed, i), nullptr); }),
                   "s", kSetupSamples});
  if (traced) {
    add_common_layer_metrics(r);
    counters.emit(r, r.substrate.bytes_sent);
    if (s.full_stack) {
      r.layers.push_back({"fd.final_timeout_max", static_cast<double>(timeout_max), "tick", n_runs});
    }
    if (s.crash_at > 0) {
      r.layers.push_back({"smr.unavail_ticks", median(unavail), "tick", n_runs});
    }
  }
  return r;
}

// -------------------------------------------------------------- fd-mesh

constexpr std::size_t kMeshN = 128;
constexpr std::size_t kMeshShards = 4;
constexpr SimTime kMeshRunFor = 4000;
constexpr SimTime kMeshGst = 100;

struct MeshAssembly {
  std::unique_ptr<System> sys;
  std::vector<OHPPolling*> fds;
  std::vector<SimTime> crash_at;  // -1: never crashes
};

std::unique_ptr<MeshAssembly> mesh_build(std::uint64_t seed, std::size_t shards, Tracing* tr) {
  auto a = std::make_unique<MeshAssembly>();
  SystemConfig cfg;
  cfg.ids = ids_homonymous(kMeshN, 64, seed);
  cfg.crashes = crashes_last_k(kMeshN, 32, 60, 7);
  a->crash_at.assign(kMeshN, -1);
  for (ProcIndex i = 0; i < kMeshN; ++i) {
    if (cfg.crashes[i]) a->crash_at[i] = cfg.crashes[i]->at;
  }
  PartialSyncTiming::Params net;
  net.gst = kMeshGst;
  net.delta = 3;
  net.pre_gst_loss = 0.3;
  net.pre_gst_max_delay = 40;
  cfg.timing = std::make_unique<PartialSyncTiming>(net);
  cfg.seed = seed;
  cfg.shards = shards;
  a->sys = std::make_unique<System>(std::move(cfg));
  a->fds.resize(kMeshN);
  for (ProcIndex i = 0; i < kMeshN; ++i) {
    auto fd = std::make_unique<OHPPolling>();
    a->fds[i] = fd.get();
    a->sys->set_process(i, leaf(std::move(fd), tr, i, Layer::kFd));
  }
  return a;
}

struct MeshRun {
  bool ok = false;
  double wall_s = 0;
  double check_s = 0;
  SimTime stabilization = -1;
  SimTime timeout_max = 0;
  // Per (correct observer, crashed identifier, k-th crash of it): ticks from
  // the crash until the observer's h_trusted multiplicity of that identifier
  // dropped for good (obs/qos.h).
  std::vector<SimTime> detect;
  NetworkStats net;
  ShardRunStats shard;
  std::vector<double> worker_cpu_s;  // traced only: CPU time per callback thread
};

MeshRun mesh_once(std::uint64_t seed, std::size_t shards, Tracing* tr) {
  MeshRun out;
  const std::unique_ptr<MeshAssembly> a = mesh_build(seed, shards, tr);
  System& sys = *a->sys;
  const std::int64_t t0 = mono_ns();
  sys.start();
  sys.run_until(kMeshRunFor);
  out.wall_s = seconds_since(t0);

  if (tr != nullptr) {
    // The shard workers are parked but alive until the system is destroyed.
    std::map<clockid_t, double> cpu;
    for (const auto& p : tr->probes()) {
      clockid_t c{};
      timespec tsp{};
      if (p->cpu_clock(c) && cpu.count(c) == 0 && clock_gettime(c, &tsp) == 0) {
        cpu[c] = static_cast<double>(tsp.tv_sec) + static_cast<double>(tsp.tv_nsec) / 1e9;
      }
    }
    for (const auto& [c, s] : cpu) out.worker_cpu_s.push_back(s);
  }

  const std::int64_t tc = mono_ns();
  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<Multiset<Id>>*> trusted;
  std::vector<const Trajectory<HOmegaOut>*> leaders;
  for (OHPPolling* fd : a->fds) {
    trusted.push_back(&fd->trusted_trace());
    leaders.push_back(&fd->homega_trace());
  }
  out.ok = check_ohp(gt, trusted, kMeshRunFor, 400).ok && check_homega(gt, leaders, kMeshRunFor, 400).ok;
  obs::QosInput in;
  in.gt = gt;
  in.crash_at = a->crash_at;
  in.gst = kMeshGst;
  in.run_end = kMeshRunFor;
  in.trusted = trusted;
  for (const obs::QosDetection& d : obs::analyze_qos(in).detections) {
    if (d.latency < 0) {
      out.ok = false;
    } else {
      out.detect.push_back(d.latency);
    }
  }
  out.check_s = seconds_since(tc);
  for (ProcIndex i = 0; i < kMeshN; ++i) {
    if (!sys.is_correct(i)) continue;
    out.stabilization = std::max(out.stabilization, trusted[i]->last_change());
    out.timeout_max = std::max(out.timeout_max, a->fds[i]->timeout());
  }
  out.net = sys.net_stats();
  out.shard = sys.shard_stats();
  return out;
}

// ------------------------------------------------------- consensus-sweep

constexpr std::size_t kConsN = 12;
constexpr SimTime kConsDelta = 3;
constexpr std::size_t kElls[] = {1, 3, 6, 12};
constexpr std::size_t kCrashes[] = {0, 6, 10};

struct ConsAssembly {
  std::unique_ptr<System> sys;
  std::vector<QuorumConsensus*> procs;
  std::vector<OHPPolling*> fds;
};

std::unique_ptr<ConsAssembly> cons_build(std::size_t ell, std::size_t crashes, std::uint64_t seed,
                                         const std::vector<Value>& proposals, Tracing* tr) {
  auto a = std::make_unique<ConsAssembly>();
  SystemConfig cfg;
  cfg.ids = ids_homonymous(kConsN, ell, seed);
  cfg.crashes = crashes > 0 ? crashes_last_k(kConsN, crashes, 15, 9) : crashes_none(kConsN);
  cfg.timing = std::make_unique<BoundedTiming>(kConsDelta);
  cfg.seed = seed;
  a->sys = std::make_unique<System>(std::move(cfg));
  a->procs.resize(kConsN);
  a->fds.resize(kConsN);
  for (ProcIndex i = 0; i < kConsN; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    auto ohp = std::make_unique<OHPPolling>();
    auto hsig = std::make_unique<HSigmaComponent>(kConsDelta + 1);
    a->fds[i] = ohp.get();
    const HOmegaHandle& fd1 = homega(*ohp, tr, i);
    const HSigmaHandle& fd2 = hsigma(*hsig, tr, i);
    stack->add(leaf(std::move(ohp), tr, i, Layer::kFd));
    stack->add(leaf(std::move(hsig), tr, i, Layer::kFd));
    auto cons = std::make_unique<QuorumConsensus>(QuorumConsensusConfig{proposals[i], 4}, fd1, fd2);
    a->procs[i] = cons.get();
    stack->add(leaf(std::move(cons), tr, i, Layer::kConsensus));
    a->sys->set_process(i, stack_node(std::move(stack), tr, i));
  }
  return a;
}

}  // namespace

PassResult run_smr_steady(const Options& o, bool traced) {
  SmrSpec s;
  s.n = 5;
  s.t = 2;
  s.clients = 64;
  s.base_runs = 64;
  s.quick_runs = 2;
  return run_smr(s, o, traced);
}

PassResult run_smr_failover(const Options& o, bool traced) {
  SmrSpec s;
  s.n = 5;
  s.t = 2;
  s.clients = 32;
  s.full_stack = true;
  s.max_time = 60'000;
  s.crash_at = 2500;
  s.base_runs = 64;
  s.quick_runs = 2;
  return run_smr(s, o, traced);
}

PassResult run_fd_mesh(const Options& o, bool traced) {
  PassResult r;
  Fnv fp;
  std::vector<double> rates;
  std::vector<SimTime> detect;
  SimTime timeout_max = 0;
  ShardRunStats shard;
  double busy_s = 0;
  double capacity_s = 0;
  std::vector<double> imbalance;
  MeshRun first;
  const std::size_t runs = scaled_runs(o, 6, 1);
  for (std::size_t k = 0; k < runs; ++k) {
    std::unique_ptr<Tracing> tr = traced ? std::make_unique<Tracing>(kMeshN) : nullptr;
    MeshRun m = mesh_once(run_seed(o.seed, k), kMeshShards, tr.get());
    fold_trace(r, tr.get(), m.wall_s, kMeshShards);
    ++r.runs;
    ++r.attempted;
    if (!m.ok) ++r.failed;
    r.check_s += m.check_s;
    rates.push_back(1.0 / m.wall_s);
    detect.insert(detect.end(), m.detect.begin(), m.detect.end());
    timeout_max = std::max(timeout_max, m.timeout_max);
    add_substrate(r, m.net);
    shard.windows += m.shard.windows;
    shard.cross_groups += m.shard.cross_groups;
    shard.mailbox_spills += m.shard.mailbox_spills;
    shard.lookahead_violations += m.shard.lookahead_violations;
    if (!m.worker_cpu_s.empty()) {
      double sum = 0;
      double mx = 0;
      for (double c : m.worker_cpu_s) {
        sum += c;
        mx = std::max(mx, c);
      }
      busy_s += sum;
      capacity_s += m.wall_s * static_cast<double>(kMeshShards);
      imbalance.push_back(mx / (sum / static_cast<double>(m.worker_cpu_s.size())));
    }
    fp.add(m.ok);
    fp.add(static_cast<std::uint64_t>(m.stabilization));
    fp.add(m.net.broadcasts);
    fp.add(m.net.copies_delivered);
    for (SimTime t : m.detect) fp.add(static_cast<std::uint64_t>(t));
    if (k == 0) first = std::move(m);
  }
  if (shard.lookahead_violations != 0) {
    throw SafetyViolation("sharded engine delivered inside its own window");
  }

  r.fingerprint = fp.h;
  const auto n_runs = static_cast<std::uint64_t>(runs);
  r.e2e.push_back({"units_per_s", median(rates), "1/s", n_runs});
  r.e2e.push_back({"latency_p50", tick_quantile(detect, 0.50), "tick", detect.size()});
  r.e2e.push_back({"latency_p99", tick_quantile(detect, 0.99), "tick", detect.size()});
  r.e2e.push_back({"msgs_per_unit", per(static_cast<double>(r.substrate.broadcasts), static_cast<double>(runs)),
                   "count", n_runs});
  r.e2e.push_back({"setup_s", setup_median([&](std::size_t i) {
                     return mesh_build(run_seed(o.seed, i), kMeshShards, nullptr);
                   }),
                   "s", kSetupSamples});
  if (traced) {
    // Reference pair on run 0's seed, untraced: the 1-shard engine must
    // reproduce the 4-shard run exactly, and their wall ratio is the
    // sharding speedup.
    const MeshRun four = mesh_once(run_seed(o.seed, 0), kMeshShards, nullptr);
    const MeshRun one = mesh_once(run_seed(o.seed, 0), 1, nullptr);
    for (const MeshRun* m : {&four, &one}) {
      if (m->net.copies_delivered != first.net.copies_delivered ||
          m->stabilization != first.stabilization || m->detect != first.detect) {
        throw Divergence("fd-mesh: shards=1 reference run differs from the 4-shard run");
      }
    }
    add_common_layer_metrics(r);
    const double d = static_cast<double>(runs);
    r.layers.push_back({"fd.final_timeout_max", static_cast<double>(timeout_max), "tick", n_runs});
    r.layers.push_back({"sim.shard_windows", static_cast<double>(shard.windows) / d, "count", n_runs});
    r.layers.push_back(
        {"sim.shard_cross_groups", static_cast<double>(shard.cross_groups) / d, "count", n_runs});
    r.layers.push_back({"sim.shard_spills", static_cast<double>(shard.mailbox_spills) / d, "count", n_runs});
    r.layers.push_back({"sim.shard_lookahead_violations",
                        static_cast<double>(shard.lookahead_violations), "count", n_runs});
    r.layers.push_back({"sim.shard_idle_frac", 1.0 - per(busy_s, capacity_s), "ratio", n_runs});
    r.layers.push_back({"sim.shard_imbalance", median(imbalance), "ratio", n_runs});
    r.layers.push_back({"sim.shard_speedup", one.wall_s / four.wall_s, "ratio", 1});
  }
  return r;
}

PassResult run_consensus_sweep(const Options& o, bool traced) {
  constexpr SimTime kMaxTime = 20'000;
  PassResult r;
  Fnv fp;
  std::vector<double> rates;
  std::vector<SimTime> lats;
  std::map<std::size_t, std::vector<SimTime>> lats_by_ell;
  std::vector<double> rounds;
  std::int64_t sub_rounds_max = 0;
  SimTime timeout_max = 0;
  const std::vector<Value> proposals = distinct_proposals(kConsN);
  // One pass = one instance per (identifiers, crashes) cell.
  const std::size_t passes = scaled_runs(o, 200, 1);
  std::uint64_t idx = 0;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    double pass_wall = 0;
    std::size_t pass_units = 0;
    for (std::size_t ell : kElls) {
      for (std::size_t k : kCrashes) {
        std::unique_ptr<Tracing> tr = traced ? std::make_unique<Tracing>(kConsN) : nullptr;
        const std::unique_ptr<ConsAssembly> a =
            cons_build(ell, k, run_seed(o.seed, idx++), proposals, tr.get());
        System& sys = *a->sys;
        const std::vector<QuorumConsensus*>& procs = a->procs;
        const auto all_decided = [&] {
          for (ProcIndex i = 0; i < kConsN; ++i) {
            if (sys.is_correct(i) && !procs[i]->decision().decided) return false;
          }
          return true;
        };
        const std::int64_t t0 = mono_ns();
        sys.start();
        bool decided = false;
        while (!decided && sys.now() < kMaxTime) {
          sys.run_until(sys.now() + 1);
          decided = all_decided();
        }
        const double wall = seconds_since(t0);
        fold_trace(r, tr.get(), wall, 1);
        pass_wall += wall;

        const std::int64_t tc = mono_ns();
        std::vector<DecisionRecord> decisions(kConsN);
        for (ProcIndex i = 0; i < kConsN; ++i) decisions[i] = procs[i]->decision();
        // Agreement and validity over every decision, crashed processes
        // included; termination is liveness and goes to the failure count.
        for (const DecisionRecord& d : decisions) {
          if (!d.decided) continue;
          if (std::find(proposals.begin(), proposals.end(), d.value) == proposals.end()) {
            throw SafetyViolation("consensus-sweep: validity broken (decided " +
                                  std::to_string(d.value) + ")");
          }
          for (const DecisionRecord& e : decisions) {
            if (e.decided && e.value != d.value) {
              throw SafetyViolation("consensus-sweep: agreement broken");
            }
          }
        }
        if (decided) {
          const CheckResult c = check_consensus(GroundTruth::from(sys), proposals, decisions);
          if (!c) throw SafetyViolation("consensus-sweep: " + c.detail);
        }
        r.check_s += seconds_since(tc);

        ++r.attempted;
        if (!decided) {
          ++r.failed;
          continue;
        }
        ++pass_units;
        SimTime at = 0;
        Round max_round = 0;
        for (ProcIndex i = 0; i < kConsN; ++i) {
          if (!sys.is_correct(i)) continue;
          at = std::max(at, decisions[i].at);
          max_round = std::max(max_round, procs[i]->current_round());
          sub_rounds_max = std::max(sub_rounds_max, procs[i]->max_sub_round_seen());
          timeout_max = std::max(timeout_max, a->fds[i]->timeout());
        }
        lats.push_back(at);
        lats_by_ell[ell].push_back(at);
        rounds.push_back(static_cast<double>(max_round));
        add_substrate(r, sys.net_stats());
        fp.add(static_cast<std::uint64_t>(at));
        fp.add(static_cast<std::uint64_t>(decisions[0].value));
        fp.add(static_cast<std::uint64_t>(max_round));
        fp.add(sys.net_stats().broadcasts);
      }
    }
    ++r.runs;
    rates.push_back(static_cast<double>(pass_units) / pass_wall);
  }

  r.fingerprint = fp.h;
  const auto n_passes = static_cast<std::uint64_t>(passes);
  const auto decided = static_cast<double>(lats.size());
  r.e2e.push_back({"units_per_s", median(rates), "1/s", n_passes});
  r.e2e.push_back({"latency_p50", tick_quantile(lats, 0.50), "tick", lats.size()});
  r.e2e.push_back({"latency_p99", tick_quantile(lats, 0.99), "tick", lats.size()});
  r.e2e.push_back({"msgs_per_unit", per(static_cast<double>(r.substrate.broadcasts), decided), "count",
                   lats.size()});
  r.e2e.push_back({"setup_s", setup_median([&](std::size_t i) {
                     return cons_build(kElls[i % 4], kCrashes[i % 3], run_seed(o.seed, i), proposals,
                                       nullptr);
                   }),
                   "s", kSetupSamples});
  if (traced) {
    add_common_layer_metrics(r);
    r.layers.push_back({"fd.final_timeout_max", static_cast<double>(timeout_max), "tick", n_passes});
    r.layers.push_back({"consensus.rounds_p50", median(rounds), "count", rounds.size()});
    r.layers.push_back(
        {"consensus.sub_rounds_max", static_cast<double>(sub_rounds_max), "count", rounds.size()});
    for (std::size_t ell : kElls) {
      const std::vector<SimTime>& v = lats_by_ell[ell];
      r.layers.push_back({"consensus.decide_p50_ell" + std::to_string(ell), tick_quantile(v, 0.50),
                          "tick", v.size()});
    }
  }
  return r;
}

}  // namespace hdsb
