// Figure 7 benchmark: HΣ implementation in HSS.
//
// Series: steps until every correct process holds a live quorum (expect:
// the step after the last crash), stored quora growth under crash
// cascades, and message volume per step (n per step, n^2 copies).
#include "bench_util.h"

namespace {

using namespace hds;

Fig7Result run(std::size_t n, std::size_t distinct, std::size_t crash_k, std::size_t stagger,
               std::uint64_t seed) {
  Fig7Params p;
  p.ids = ids_homonymous(n, distinct, seed + 29);
  if (crash_k > 0) p.crashes = crashes_last_k(n, crash_k, 1, stagger, true);
  p.steps = 10 + crash_k * stagger + 5;
  p.seed = seed;
  p.metrics = hds::bench::metrics_sink();
  return run_fig7(p);
}

void BM_Fig7_LivenessStepVsCrashes(benchmark::State& state) {
  const auto crash_k = static_cast<std::size_t>(state.range(0));
  Fig7Result r;
  for (auto _ : state) r = run(10, 5, crash_k, 2, 1);
  hds::bench::require(state, r.check.ok, r.check.detail);
  state.counters["liveness_step"] = static_cast<double>(r.liveness_step);
  state.counters["quora_stored"] = static_cast<double>(r.max_quora_stored);
}
BENCHMARK(BM_Fig7_LivenessStepVsCrashes)->Arg(0)->Arg(2)->Arg(5)->Arg(9)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig7_ScaleVsN(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fig7Result r;
  for (auto _ : state) r = run(n, (n + 1) / 2, n / 3, 1, 2);
  hds::bench::require(state, r.check.ok, r.check.detail);
  state.counters["messages"] = static_cast<double>(r.messages);
  state.counters["liveness_step"] = static_cast<double>(r.liveness_step);
}
BENCHMARK(BM_Fig7_ScaleVsN)->Arg(4)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_Fig7_HomonymyDegree(benchmark::State& state) {
  const auto distinct = static_cast<std::size_t>(state.range(0));
  Fig7Result r;
  for (auto _ : state) r = run(12, distinct, 4, 1, 3);
  hds::bench::require(state, r.check.ok, r.check.detail);
  state.counters["liveness_step"] = static_cast<double>(r.liveness_step);
  state.counters["quora_stored"] = static_cast<double>(r.max_quora_stored);
}
BENCHMARK(BM_Fig7_HomonymyDegree)->Arg(1)->Arg(3)->Arg(6)->Arg(12)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

HDS_BENCH_MAIN();
