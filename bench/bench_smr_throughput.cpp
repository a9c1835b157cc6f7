// Replicated-log throughput anchor: the closed-loop client workload driven
// through the SMR fast path on the sim substrate.
//
// Two groups:
//   - BM_Smr_ClosedLoopThroughput is the CI-gated series: n=3 under the
//     stable HΩ oracle, measuring how fast the simulator pushes committed
//     client ops end to end (items_per_second = committed ops / wall
//     second). The sim-domain outcomes ride along as counters — ops_total,
//     ops_per_ktick, commit-latency p50/p99 in ticks, appends per committed
//     batch — and are a pure function of the seed, so CI can also bound
//     them exactly (see the SMR gate in ci.yml).
//   - BM_Smr_LeaderCrashRecovery prices the slow path: the lease holder
//     crashes mid-stream and the run must still converge through epoch
//     recovery + per-slot Fig. 8 instances. Not gated; the counters
//     (epochs, recovery instances) document the failover bill.
//
// Every run must converge with a consistent prefix — a benchmark never
// reports numbers from a broken run (hds::bench::require).
#include "bench_util.h"
#include "smr/harness.h"

namespace {

using namespace hds;

// Arg 0: replica count n (t = (n-1)/2).
void BM_Smr_ClosedLoopThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  smr::SmrSimResult r;
  std::uint64_t ops = 0;
  for (auto _ : state) {
    smr::SmrSimParams p;
    p.ids = ids_unique(n);
    p.t = (n - 1) / 2;
    p.seed = 11;
    p.run_for = 8000;
    p.max_time = 32'000;
    p.workload.clients = 64;
    p.metrics = bench::metrics_sink();
    r = run_smr_sim(p);
    ops += r.ops_total;
  }
  bench::require(state, r.converged, "replicas did not converge");
  bench::require(state, r.prefix_consistent, "applied prefixes diverged");
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
  state.counters["ops_total"] = static_cast<double>(r.ops_total);
  state.counters["ops_per_ktick"] = r.ops_per_ktick;
  state.counters["latency_p50"] = r.latency_p50;
  state.counters["latency_p99"] = r.latency_p99;
  double appends = 0;
  double batches = 0;
  for (const smr::SmrReplicaStats& st : r.replicas) {
    appends += static_cast<double>(st.appends_sent + st.repair_appends_sent);
    batches = std::max(batches, static_cast<double>(st.batches_committed));
  }
  state.counters["appends_per_batch"] = batches > 0 ? appends / batches : 0;
}
BENCHMARK(BM_Smr_ClosedLoopThroughput)->Arg(3)->Arg(5)->Unit(benchmark::kMillisecond);

void BM_Smr_LeaderCrashRecovery(benchmark::State& state) {
  smr::SmrSimResult r;
  for (auto _ : state) {
    smr::SmrSimParams p;
    p.ids = ids_unique(5);
    p.t = 2;
    p.seed = 23;
    p.run_for = 8000;
    p.max_time = 60'000;
    p.workload.clients = 32;
    p.full_stack = true;
    p.net.gst = 150;
    p.net.delta = 3;
    p.crashes.resize(5);
    p.crashes[0] = CrashPlan{2500, false};  // whoever leads first (lowest index wins HΩ)
    p.metrics = bench::metrics_sink();
    r = run_smr_sim(p);
  }
  bench::require(state, r.converged, "survivors did not converge after failover");
  bench::require(state, r.prefix_consistent, "applied prefixes diverged");
  state.counters["ops_total"] = static_cast<double>(r.ops_total);
  state.counters["latency_p99"] = r.latency_p99;
  double epochs = 0;
  double recoveries = 0;
  for (const smr::SmrReplicaStats& st : r.replicas) {
    epochs = std::max(epochs, static_cast<double>(st.epochs_started));
    recoveries += static_cast<double>(st.recovery_instances);
  }
  state.counters["epochs"] = epochs;
  state.counters["recovery_instances"] = recoveries;
}
BENCHMARK(BM_Smr_LeaderCrashRecovery)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

HDS_BENCH_MAIN()
