// "Price of anonymity" benchmark (Section 1 discussion): the paper recalls
// that consensus with P needs t+1 rounds while anonymous consensus with AP
// needs 2t+1, and motivates homonymy as the middle ground. We measure how
// our two algorithms behave across the homonymy spectrum l = 1 (anonymous)
// … l = n (unique ids): decision rounds, sub-rounds, coordination traffic.
// Expect Fig. 8/9 round counts to be flat in l (the algorithms pay in the
// Leaders' Coordination Phase, not in rounds), with COORD convergence work
// growing as homonyms multiply.
#include <memory>

#include "bench_util.h"
#include "consensus/flood_sync.h"
#include "fd/ground_truth.h"

namespace {

using namespace hds;

// Round counts of the two synchronous baselines under the adversarial
// one-crash-per-step schedule: FloodMin always pays its fixed t+1 (t must be
// known); the AP-style early stopper pays 2 when nothing fails and ~t+2 in
// the worst case without ever knowing t.
template <typename P, typename Make>
std::pair<std::size_t, bool> run_sync_baseline(std::size_t n, std::size_t crash_k,
                                               std::size_t steps, std::uint64_t seed,
                                               Make make) {
  SystemConfig cfg;
  cfg.ids = ids_anonymous(n);
  cfg.timing = std::make_unique<BoundedTiming>(1);  // lock step: one tick per step
  if (crash_k > 0) cfg.crashes = crashes_last_k(n, crash_k, 0, 1, false);
  cfg.seed = seed;
  System sys(std::move(cfg));
  const auto proposals = distinct_proposals(n);
  std::vector<P*> procs;
  for (ProcIndex i = 0; i < n; ++i) {
    auto p = make(proposals[i]);
    procs.push_back(p.get());
    sys.set_process(i, std::move(p));
  }
  sys.start();
  sys.run_until(static_cast<SimTime>(steps));
  std::vector<DecisionRecord> decisions;
  for (auto* p : procs) decisions.push_back(p->decision());
  const bool ok = check_consensus(GroundTruth::from(sys), proposals, decisions).ok;
  std::size_t max_round = 0;
  for (ProcIndex i = 0; i < n; ++i) {
    if (sys.is_correct(i)) {
      max_round = std::max(max_round, static_cast<std::size_t>(decisions[i].round));
    }
  }
  return {max_round, ok};
}

void BM_AnonPrice_SyncBaselinesVsT(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 10;
  std::pair<std::size_t, bool> flood, apstab;
  for (auto _ : state) {
    flood = run_sync_baseline<FloodMinSync>(
        n, t, t + 4, 1, [&](Value v) { return std::make_unique<FloodMinSync>(v, t); });
    apstab = run_sync_baseline<ApStabilitySync>(
        n, t, 2 * t + 8, 1, [&](Value v) { return std::make_unique<ApStabilitySync>(v); });
  }
  hds::bench::require(state, flood.second, "FloodMin consensus check");
  hds::bench::require(state, apstab.second, "ApStability consensus check");
  state.counters["floodmin_rounds"] = static_cast<double>(flood.first);
  state.counters["apstab_rounds"] = static_cast<double>(apstab.first);
}
BENCHMARK(BM_AnonPrice_SyncBaselinesVsT)->Arg(0)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_AnonPrice_Fig8Spectrum(benchmark::State& state) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig8OracleParams p;
    p.ids = distinct == 0 ? ids_anonymous(9) : ids_homonymous(9, distinct, 3);
    p.t_known = 4;
    p.crashes = crashes_last_k(9, 4, 20, 9);
    p.fd_stabilize = 80;
    p.seed = 1;
    r = run_fig8_with_oracle(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  state.counters["rounds"] = static_cast<double>(r.max_round);
  state.counters["decision_time"] = static_cast<double>(r.last_decision_time);
  state.counters["broadcasts"] = static_cast<double>(r.broadcasts);
}
BENCHMARK(BM_AnonPrice_Fig8Spectrum)->Arg(0)->Arg(2)->Arg(4)->Arg(9)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_AnonPrice_Fig9Spectrum(benchmark::State& state) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig9OracleParams p;
    p.ids = distinct == 0 ? ids_anonymous(9) : ids_homonymous(9, distinct, 3);
    p.crashes = crashes_last_k(9, 6, 20, 9);  // beyond any majority
    p.fd1_stabilize = 80;
    p.fd2_stabilize = 110;
    p.seed = 1;
    r = run_fig9_with_oracle(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  state.counters["rounds"] = static_cast<double>(r.max_round);
  state.counters["sub_rounds"] = static_cast<double>(r.max_sub_round);
  state.counters["decision_time"] = static_cast<double>(r.last_decision_time);
}
BENCHMARK(BM_AnonPrice_Fig9Spectrum)->Arg(0)->Arg(2)->Arg(4)->Arg(9)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_AnonPrice_AnonAOmegaVariant(benchmark::State& state) {
  // The AAS[AΩ, HΣ] specialization (coordination phase removed): its
  // decision latency vs the homonymous general algorithm at l = 1.
  const auto n = static_cast<std::size_t>(state.range(0));
  ConsensusRunResult r;
  for (auto _ : state) {
    Fig9AnonOmegaParams p;
    p.n = n;
    p.crashes = crashes_last_k(n, n / 2, 20, 9);
    p.aomega_stabilize = 80;
    p.fd2_stabilize = 110;
    p.seed = 1;
    r = run_fig9_anon_aomega(p);
  }
  hds::bench::require(state, r.check.ok, r.check.detail);
  state.counters["rounds"] = static_cast<double>(r.max_round);
  state.counters["decision_time"] = static_cast<double>(r.last_decision_time);
}
BENCHMARK(BM_AnonPrice_AnonAOmegaVariant)->Arg(5)->Arg(9)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

HDS_BENCH_MAIN();
