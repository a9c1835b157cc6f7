#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/rng.h"

namespace hdsb {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double tick_quantile(std::vector<hds::SimTime> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  // First index whose cumulative count reaches the target rank.
  std::size_t k = std::min(v.size() - 1, static_cast<std::size_t>(target));
  const hds::SimTime value = v[k];
  const auto lo = std::lower_bound(v.begin(), v.end(), value) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), value) - v.begin();
  const double within = (target - static_cast<double>(lo)) / static_cast<double>(hi - lo);
  return static_cast<double>(value) - 0.5 + std::clamp(within, 0.0, 1.0);
}

std::size_t scaled_runs(const Options& o, std::size_t base, std::size_t quick) {
  if (o.quick) return quick;
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(
                                      static_cast<double>(base) * o.seconds / 10.0)));
}

std::uint64_t run_seed(std::uint64_t seed, std::uint64_t run) {
  return hds::Rng::derived(seed, run).engine()();
}

std::int64_t mono_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0_ns) { return static_cast<double>(mono_ns() - t0_ns) / 1e9; }

void add_common_layer_metrics(PassResult& r) {
  const TraceTotals& t = r.trace;
  const SubstrateTotals& s = r.substrate;
  const double thread_ns = std::max(1.0, s.thread_s * 1e9);
  const double engine_ns = std::max(0.0, thread_ns - static_cast<double>(t.callback_ns));
  const auto& L = t.layers;
  const auto lay = [&](Layer l) -> const LayerTotals& { return L[static_cast<std::size_t>(l)]; };
  const auto share = [&](Layer l) { return static_cast<double>(lay(l).self_ns) / thread_ns; };
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto copies = static_cast<double>(s.copies_delivered);
  const std::uint64_t runs = r.runs;
  auto add = [&](const char* name, double v, const char* unit) {
    r.layers.push_back({name, v, unit, runs});
  };
  add("engine.callbacks", static_cast<double>(t.callbacks), "count");
  add("engine.copies_delivered", copies, "count");
  add("engine.broadcasts", static_cast<double>(s.broadcasts), "count");
  add("engine.bytes_per_copy", per(static_cast<double>(s.bytes_sent), copies), "B");
  add("engine.share", engine_ns / thread_ns, "ratio");
  add("engine.ns_per_copy", per(engine_ns, copies), "ns");
  add("stack.share", share(Layer::kStack), "ratio");
  add("send.share", share(Layer::kSend), "ratio");
  add("send.ns_per_broadcast",
      per(static_cast<double>(lay(Layer::kSend).total_ns), static_cast<double>(lay(Layer::kSend).calls)),
      "ns");
  add("fd.callbacks", static_cast<double>(lay(Layer::kFd).calls), "count");
  add("fd.share", share(Layer::kFd), "ratio");
  add("fd.queries", static_cast<double>(lay(Layer::kQuery).calls), "count");
  add("fd.query_share", share(Layer::kQuery), "ratio");
  add("consensus.callbacks", static_cast<double>(lay(Layer::kConsensus).calls), "count");
  add("consensus.share", share(Layer::kConsensus), "ratio");
  add("smr.callbacks", static_cast<double>(lay(Layer::kSmr).calls), "count");
  add("smr.share", share(Layer::kSmr), "ratio");
  add("codec.ns_per_msg", codec_ns_per_msg(t.samples), "ns");
  add("spec.check_s", r.check_s, "s");
  add("trace.spans", static_cast<double>(t.spans), "count");
  add("trace.thread_s", s.thread_s, "s");
}

// ---------------------------------------------------------------- catalogue

const std::vector<MetricInfo>& e2e_metrics() {
  static const std::vector<MetricInfo> m = {
      {"units_per_s", "1/s", nullptr,
       "work units completed per wall second, median over runs (setup and checks excluded): "
       "committed client ops (smr-*), seeded runs (fd-mesh), decided instances (consensus-sweep)"},
      {"latency_p50", "tick", nullptr,
       "median latency of one unit on the substrate clock: submit-to-apply commit latency "
       "(smr-*; one tick is 1 ms on smr-udp), crash-to-detection per (observer, crashed "
       "identifier) (fd-mesh), decision of the last correct process (consensus-sweep)"},
      {"latency_p99", "tick", nullptr, "99th percentile of the same samples"},
      {"msgs_per_unit", "count", nullptr,
       "broadcasts per unit of work, the paper's cost axis: per committed op, per run, per "
       "decided instance"},
      {"setup_s", "s", nullptr,
       "median time to construct the systems and processes of one run, over 16 assemblies "
       "built back to back (smr-udp: 5, each the three NetSystems with socket bind, threads and "
       "stacks, without the HELLO barrier)"},
  };
  return m;
}

const std::vector<MetricInfo>& layer_metrics() {
  static const std::vector<MetricInfo> m = {
      {"engine.callbacks", "count", nullptr, "process callbacks dispatched by the substrate"},
      {"engine.copies_delivered", "count", nullptr, "message copies delivered"},
      {"engine.broadcasts", "count", nullptr, "Env::broadcast calls"},
      {"engine.bytes_per_copy", "B", nullptr,
       "wire bytes sent per delivered copy (metered v1 frames in sim, datagram payload on UDP)"},
      {"engine.share", "ratio", nullptr,
       "share of callback-thread time outside every process callback: event queue, fan-out "
       "scheduling, shard barriers (sim); socket waits and mailbox (smr-udp)"},
      {"engine.ns_per_copy", "ns", nullptr, "that engine time per delivered copy"},
      {"stack.share", "ratio", nullptr, "StackedProcess dispatch self time"},
      {"send.share", "ratio", nullptr,
       "time inside Env::broadcast: fan-out and byte meter (sim), codec and send batching (UDP)"},
      {"send.ns_per_broadcast", "ns", nullptr, "mean time of one Env::broadcast"},
      {"fd.callbacks", "count", nullptr, "callbacks into failure-detector components"},
      {"fd.share", "ratio", nullptr, "failure-detector callback self time"},
      {"fd.queries", "count", nullptr, "HOmegaHandle / HSigmaHandle queries by consensus or smr"},
      {"fd.query_share", "ratio", nullptr, "time inside those queries"},
      {"fd.final_timeout_max", "tick", "smr-failover,fd-mesh,consensus-sweep,smr-udp",
       "largest adapted OHPPolling timeout at a correct process, max over runs"},
      {"consensus.callbacks", "count", nullptr,
       "callbacks into consensus: QuorumConsensus, and SmrReplica on Fig. 8 message types"},
      {"consensus.share", "ratio", nullptr, "consensus callback self time"},
      {"consensus.rounds_p50", "count", "consensus-sweep", "median highest round per instance"},
      {"consensus.sub_rounds_max", "count", "consensus-sweep", "highest HSigma sub-round seen"},
      {"consensus.decide_p50_ell1", "tick", "consensus-sweep", "decision latency p50, 1 identifier"},
      {"consensus.decide_p50_ell3", "tick", "consensus-sweep", "decision latency p50, 3 identifiers"},
      {"consensus.decide_p50_ell6", "tick", "consensus-sweep", "decision latency p50, 6 identifiers"},
      {"consensus.decide_p50_ell12", "tick", "consensus-sweep",
       "decision latency p50, 12 identifiers (unique)"},
      {"smr.callbacks", "count", nullptr, "callbacks into SmrReplica outside consensus messages"},
      {"smr.share", "ratio", nullptr, "SmrReplica callback self time"},
      {"smr.ops_per_batch", "count", "smr-steady,smr-failover,smr-udp", "committed ops per batch"},
      {"smr.appends_per_batch", "count", "smr-steady,smr-failover,smr-udp",
       "SMR_APPEND broadcasts (repairs included) per committed batch"},
      {"smr.acks_per_batch", "count", "smr-steady,smr-failover,smr-udp",
       "SMR_ACK broadcasts per committed batch"},
      {"smr.bytes_per_op", "B", "smr-steady,smr-failover,smr-udp", "wire bytes per committed op"},
      {"smr.dedup_frac", "ratio", "smr-steady,smr-failover,smr-udp",
       "applies discarded by the exactly-once dedup / all applies"},
      {"smr.repair_appends", "count", "smr-steady,smr-failover,smr-udp", "repair appends per run"},
      {"smr.epochs", "count", "smr-steady,smr-failover,smr-udp", "epochs started per run"},
      {"smr.recovery_instances", "count", "smr-steady,smr-failover,smr-udp",
       "per-slot Fig. 8 recovery instances per run"},
      {"smr.unavail_ticks", "tick", "smr-failover",
       "longest stretch after the leader crash with no completion at any correct replica, "
       "median over runs"},
      {"sim.shard_windows", "count", "fd-mesh", "conservative windows, per run"},
      {"sim.shard_cross_groups", "count", "fd-mesh", "fan-out groups routed across shards, per run"},
      {"sim.shard_spills", "count", "fd-mesh", "mailbox pushes that missed the SPSC ring, per run"},
      {"sim.shard_lookahead_violations", "count", "fd-mesh", "must be 0"},
      {"sim.shard_idle_frac", "ratio", "fd-mesh",
       "1 - Σ worker CPU time / (wall × shards), traced pass"},
      {"sim.shard_imbalance", "ratio", "fd-mesh", "max / mean worker CPU time, traced pass"},
      {"sim.shard_speedup", "ratio", "fd-mesh",
       "wall of one untraced shards=1 reference run / wall of the same run at 4 shards"},
      {"net.packets_per_op", "count", "smr-udp", "datagrams sent per committed op"},
      {"net.frames_per_packet", "count", "smr-udp", "frames coalesced per datagram"},
      {"net.retransmits_per_op", "count", "smr-udp", "ARQ retransmissions per committed op"},
      {"net.acks_per_op", "count", "smr-udp", "standalone ARQ acks per committed op"},
      {"net.decode_errors", "count", "smr-udp", "malformed frames or batches rejected"},
      {"codec.ns_per_msg", "ns", nullptr,
       "encode_frame + decode_frame of one message from the broadcast mix the Env proxy sampled"},
      {"spec.check_s", "s", nullptr,
       "time in correctness checks, kept out of every end-to-end timing"},
      {"trace.spans", "count", nullptr, "spans recorded by the proxies"},
      {"trace.thread_s", "s", nullptr,
       "Σ measured wall × callback threads; every *.share is a fraction of it"},
      {"trace.overhead", "ratio", nullptr, "untraced units_per_s / traced units_per_s"},
  };
  return m;
}

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> w = {
      {"smr-steady",
       "sim SMR fast path: n=5, t=2, stable HOmega oracle, AsyncTiming[1,8], 64 closed-loop "
       "clients per replica, run_for 8000",
       "smr batch/ack/apply/kv does most of the work and fd almost none; one shard guards the "
       "single-queue engine",
       run_smr_steady},
      {"smr-failover",
       "sim SMR on the OHPPolling stack: n=5, t=2, PartialSyncTiming GST 150 delta 3, 32 "
       "clients per replica, replica 0 (first leader) crashes at tick 2500",
       "leader change: fd polling, epochs, promises, per-slot Fig. 8 instances; clients stall "
       "while no leader exists",
       run_smr_failover},
      {"fd-mesh",
       "Fig. 6 heartbeat mesh: n=128, 64 identifiers, 32 crashes, PartialSyncTiming GST 100 "
       "delta 3 pre-GST loss 0.3, run_for 4000, 4 shards",
       "sim engine and fd do the work, smr none; the only workload on the sharded engine",
       run_fd_mesh},
      {"consensus-sweep",
       "Fig. 9 synchronous full stack (OHPPolling + HSigmaComponent + QuorumConsensus, delta 3): "
       "n=12, 1/3/6/12 identifiers x 0/6/10 crashes",
       "the paper's homonymous consensus result: HSigma quorum and multiset algebra with fd "
       "queries; decision latency against homonymy",
       run_consensus_sweep},
      {"smr-udp",
       "three in-process NetSystem replicas on loopback, ARQ and batching on, OHPPolling + "
       "SmrReplica (batch and ack every 1 ms), 32 clients per replica, 128-byte ops",
       "the only workload on net: codec, UDP batching, ARQ; a batch spans several datagrams",
       run_smr_udp},
  };
  return w;
}

}  // namespace hdsb
