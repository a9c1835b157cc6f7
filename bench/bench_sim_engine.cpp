// Substrate benchmark: raw throughput of the discrete-event engine, so the
// sim-time numbers in every other binary are anchored to reproducible
// wall-clock costs.
//
// Timing discipline: the scheduler benchmarks use manual timing around the
// drain only — the old Pause/ResumeTiming pattern charged the pause
// bookkeeping to the measured region, under-reporting events/sec by a large
// constant. Fill cost is reported separately. The binary also overrides
// global operator new/delete with a counting pass-through, so every series
// reports allocations per event — the SBO Action and the fan-out grouping
// claim "no per-event allocation in steady state", and this is where that
// claim is measured.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>

#include "bench_util.h"
#include "obs/profiler.h"
#include "sim/scheduler.h"
#include "sim/system.h"

// ------------------------------------------------------- counting allocator
// Process-wide pass-through allocator; the relaxed counter costs ~1ns per
// call, which is noise next to malloc itself.
namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t sz) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(sz)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace hds;

constexpr int kEvents = 10000;

// The scheduler series keep their /0 argument so their names match the
// committed baseline and the CI speedup gate.

// Fill-then-drain: 10k events spread over 97 ticks, drain timed manually.
void BM_Scheduler_EventThroughput(benchmark::State& state) {
  // Summed across repetitions: keeping only the last drain's count made the
  // reported ratio a single-sample value under UseManualTime.
  std::uint64_t drain_allocs = 0;
  for (auto _ : state) {
    Scheduler sched;
    std::uint64_t fired = 0;
    for (int k = 0; k < kEvents; ++k) {
      sched.at(k % 97, [&fired] { ++fired; });
    }
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    sched.run_all();
    const auto t1 = std::chrono::steady_clock::now();
    drain_allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    benchmark::DoNotOptimize(fired);
  }
  state.counters["allocs_per_event"] =
      static_cast<double>(drain_allocs) /
      static_cast<double>(state.iterations() * static_cast<std::uint64_t>(kEvents));
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_Scheduler_EventThroughput)->Arg(0)->UseManualTime();

// Steady-state churn: 64 self-rescheduling chains (the DES shape every timer
// and heartbeat loop produces), so the queue never drains and the window
// rotates continuously.
void BM_Scheduler_SelfReschedulingChurn(benchmark::State& state) {
  constexpr int kChains = 64;
  constexpr SimTime kHorizon = 4000;
  // Summed across repetitions, as in BM_Scheduler_EventThroughput.
  std::uint64_t churn_allocs = 0;
  std::uint64_t total_fired = 0;
  for (auto _ : state) {
    Scheduler sched;
    std::uint64_t fired = 0;
    std::function<void(SimTime, int)> arm = [&](SimTime at, int chain) {
      sched.at(at, [&, at, chain] {
        ++fired;
        const SimTime next = at + 1 + (chain % 7);
        if (next < kHorizon) arm(next, chain);
      });
    };
    for (int c = 0; c < kChains; ++c) arm(c % 13, c);
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    const auto t0 = std::chrono::steady_clock::now();
    sched.run_all();
    const auto t1 = std::chrono::steady_clock::now();
    churn_allocs += g_allocs.load(std::memory_order_relaxed) - a0;
    total_fired += fired;
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
  }
  state.counters["allocs_per_event"] =
      total_fired == 0 ? 0.0
                       : static_cast<double>(churn_allocs) / static_cast<double>(total_fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(total_fired));
}
BENCHMARK(BM_Scheduler_SelfReschedulingChurn)->Arg(0)->UseManualTime();

struct Flooder final : Process {
  explicit Flooder(SimTime period) : period_(period) {}
  void on_start(Env& env) override {
    env.broadcast(make_message("FLOOD", 0));
    env.set_timer(period_);
  }
  void on_timer(Env& env, TimerId) override {
    env.broadcast(make_message("FLOOD", 0));
    env.set_timer(period_);
  }
  void on_message(Env&, const Message&) override { ++received_; }
  SimTime period_;
  std::uint64_t received_ = 0;
};

void BM_System_BroadcastFloodThroughput(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::uint64_t delivered = 0;
  std::uint64_t run_allocs = 0;
  for (auto _ : state) {
    SystemConfig cfg;
    for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
    cfg.timing = std::make_unique<AsyncTiming>(1, 4);
    cfg.seed = 1;
    System sys(std::move(cfg));
    for (ProcIndex i = 0; i < n; ++i) sys.set_process(i, std::make_unique<Flooder>(2));
    sys.start();
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    sys.run_until(200);
    run_allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    delivered = sys.net_stats().copies_delivered;
  }
  state.counters["copies_delivered"] = static_cast<double>(delivered);
  state.counters["allocs_per_copy"] =
      delivered == 0 ? 0.0 : static_cast<double>(run_allocs) / static_cast<double>(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_System_BroadcastFloodThroughput)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

// One broadcast flood on the conservative-synchronization engine at a given
// shard count. AsyncTiming(16, 32) gives the engine a lookahead of 16
// ticks, so each window batches thousands of deliveries between barriers —
// the regime sharding is for. Returns the run's wall-clock seconds.
double sharded_flood_once(std::size_t n, std::size_t shards, std::uint64_t& delivered,
                          std::uint64_t& windows) {
  SystemConfig cfg;
  for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
  cfg.timing = std::make_unique<AsyncTiming>(16, 32);
  cfg.seed = 1;
  cfg.shards = shards;
  System sys(std::move(cfg));
  for (ProcIndex i = 0; i < n; ++i) sys.set_process(i, std::make_unique<Flooder>(2));
  sys.start();
  const auto t0 = std::chrono::steady_clock::now();
  sys.run_until(400);
  const auto t1 = std::chrono::steady_clock::now();
  delivered = sys.net_stats().copies_delivered;
  windows = sys.shard_stats().windows;
  return std::chrono::duration<double>(t1 - t0).count();
}

// Sharded flood rows (the CI speedup gate compares the /4 row against the
// /1 row of the same run). scale_eff is the measured parallel efficiency:
// single-shard wall-clock over (shards x sharded wall-clock) for the
// byte-identical scenario; speedup is the same ratio without the divisor.
void BM_System_ShardedFloodThroughput(benchmark::State& state) {
  const auto shards = static_cast<std::size_t>(state.range(0));
  const std::size_t n = 64;
  std::uint64_t ref_delivered = 0;
  std::uint64_t ref_windows = 0;
  const double t_ref = sharded_flood_once(n, 1, ref_delivered, ref_windows);
  std::uint64_t delivered = 0;
  std::uint64_t windows = 0;
  double total = 0;
  for (auto _ : state) {
    const double tk = sharded_flood_once(n, shards, delivered, windows);
    total += tk;
    state.SetIterationTime(tk);
  }
  if (delivered != ref_delivered) {
    state.SkipWithError("sharded run diverged from the single-shard reference");
    return;
  }
  const double mean_tk =
      state.iterations() == 0 ? 0.0 : total / static_cast<double>(state.iterations());
  const double speedup = mean_tk <= 0 ? 0.0 : t_ref / mean_tk;
  state.counters["copies_delivered"] = static_cast<double>(delivered);
  state.counters["windows"] = static_cast<double>(windows);
  state.counters["speedup_vs_1shard"] = speedup;
  state.counters["scale_eff"] = speedup / static_cast<double>(shards);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_System_ShardedFloodThroughput)->Arg(1)->Arg(2)->Arg(4)
    ->UseManualTime()->Unit(benchmark::kMillisecond);

// Observability overhead: the same flood with the metrics registry detached
// (instrument pointers null, the default) vs attached. The arg toggles the
// registry; compare the two series to confirm the detached path costs
// nothing measurable.
void BM_System_FloodMetricsOverhead(benchmark::State& state) {
  const bool instrumented = state.range(0) != 0;
  const std::size_t n = 16;
  obs::MetricsRegistry reg;
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    SystemConfig cfg;
    for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
    cfg.timing = std::make_unique<AsyncTiming>(1, 4);
    cfg.seed = 1;
    if (instrumented) cfg.metrics = &reg;
    System sys(std::move(cfg));
    for (ProcIndex i = 0; i < n; ++i) sys.set_process(i, std::make_unique<Flooder>(2));
    sys.start();
    sys.run_until(200);
    delivered = sys.net_stats().copies_delivered;
  }
  state.counters["copies_delivered"] = static_cast<double>(delivered);
  if (instrumented) {
    state.counters["metric_series"] = static_cast<double>(reg.series_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_System_FloodMetricsOverhead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// Causal-tracing overhead: the same flood with the trace ring (and its
// lineage stamping) off vs on. The off series is the CI-gated one: tracing
// disabled must stay allocation-free per event and within noise of the
// baseline flood; the on series prices the flight recorder.
void BM_System_FloodTraceOverhead(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  const std::size_t n = 16;
  std::uint64_t delivered = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t trace_recorded = 0;
  for (auto _ : state) {
    SystemConfig cfg;
    for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
    cfg.timing = std::make_unique<AsyncTiming>(1, 4);
    cfg.seed = 1;
    if (traced) cfg.trace_capacity = std::size_t{1} << 16;
    System sys(std::move(cfg));
    for (ProcIndex i = 0; i < n; ++i) sys.set_process(i, std::make_unique<Flooder>(2));
    sys.start();
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    sys.run_until(200);
    run_allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    delivered = sys.net_stats().copies_delivered;
    if (traced) trace_recorded = sys.trace().recorded();
  }
  state.counters["copies_delivered"] = static_cast<double>(delivered);
  state.counters["allocs_per_copy"] =
      delivered == 0 ? 0.0 : static_cast<double>(run_allocs) / static_cast<double>(delivered);
  if (traced) state.counters["trace_recorded"] = static_cast<double>(trace_recorded);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_System_FloodTraceOverhead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// In-process profiler overhead: the same flood with the scoped timers off
// vs on. Off is the gated series — a disabled scope is one relaxed load and
// must stay within noise of the plain flood; the on series prices full
// per-event path accounting (two steady_clock reads per scope).
void BM_System_FloodProfilerOverhead(benchmark::State& state) {
  const bool profiled = state.range(0) != 0;
  const std::size_t n = 16;
  std::uint64_t delivered = 0;
  std::uint64_t run_allocs = 0;
  if (profiled) obs::Profiler::instance().enable();
  for (auto _ : state) {
    SystemConfig cfg;
    for (std::size_t i = 0; i < n; ++i) cfg.ids.push_back(i + 1);
    cfg.timing = std::make_unique<AsyncTiming>(1, 4);
    cfg.seed = 1;
    System sys(std::move(cfg));
    for (ProcIndex i = 0; i < n; ++i) sys.set_process(i, std::make_unique<Flooder>(2));
    sys.start();
    const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
    sys.run_until(200);
    run_allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    delivered = sys.net_stats().copies_delivered;
  }
  if (profiled) {
    state.counters["prof_paths"] =
        static_cast<double>(obs::Profiler::instance().snapshot().size());
    obs::Profiler::instance().disable();
    obs::Profiler::instance().reset();
  }
  state.counters["copies_delivered"] = static_cast<double>(delivered);
  state.counters["allocs_per_copy"] =
      delivered == 0 ? 0.0 : static_cast<double>(run_allocs) / static_cast<double>(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_System_FloodProfilerOverhead)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

HDS_BENCH_MAIN();
