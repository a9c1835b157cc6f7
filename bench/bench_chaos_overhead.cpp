// Chaos interposer overhead: the broadcast-flood workload with (0) no
// interposer installed — the single null check every un-chaosed run pays —
// (1) a FaultInjector carrying an *empty* plan, and (2) a dense 4-clause
// always-active plan consulted on every copy. Series 0 and 1 should sit
// within noise of each other; series 2 prices a realistic adversary. A
// second group runs the same sweep over the real Fig. 6 detector stack.
#include <memory>

#include "bench_util.h"
#include "chaos/fault_plan.h"
#include "chaos/injector.h"
#include "consensus/harness.h"
#include "sim/system.h"

namespace {

using namespace hds;

chaos::FaultPlan empty_plan() { return {}; }

chaos::FaultPlan dense_plan() {
  using chaos::ClauseKind;
  chaos::FaultPlan plan;
  chaos::FaultClause slow;
  slow.kind = ClauseKind::kDelay;
  slow.delay = 1;
  chaos::FaultClause jitter;
  jitter.kind = ClauseKind::kReorder;
  jitter.delay = 2;
  chaos::FaultClause loss;
  loss.kind = ClauseKind::kLoss;
  loss.prob = 0.01;
  chaos::FaultClause dup;
  dup.kind = ClauseKind::kDuplicate;
  dup.prob = 0.05;
  dup.count = 1;
  dup.delay = 2;
  plan.clauses = {slow, jitter, loss, dup};  // all active forever
  return plan;
}

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

// Arg: 0 = no interposer, 1 = empty plan, 2 = dense plan.
void BM_Flood_InterposerOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const std::size_t n = 16;
  std::vector<Id> ids;
  for (std::size_t i = 0; i < n; ++i) ids.push_back(static_cast<Id>(i + 1));
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    chaos::FaultInjector inj(mode == 2 ? dense_plan() : empty_plan(), ids, 7);
    SystemConfig cfg;
    cfg.ids = ids;
    cfg.timing = std::make_unique<AsyncTiming>(1, 4);
    cfg.seed = 1;
    System sys(std::move(cfg));
    for (ProcIndex i = 0; i < n; ++i) sys.set_process(i, std::make_unique<Flooder>(2));
    if (mode > 0) inj.attach(sys);
    sys.start();
    sys.run_until(200);
    delivered = sys.net_stats().copies_delivered;
  }
  state.counters["copies_delivered"] = static_cast<double>(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(delivered));
}
BENCHMARK(BM_Flood_InterposerOverhead)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// The same three modes over the Fig. 6 detector stack in HPS: prices the
// interposer on a realistic protocol mix (polls, replies, timer traffic).
void BM_Fig6_InterposerOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const std::size_t n = 8;
  const std::vector<Id> ids = ids_homonymous(n, 4, 3);
  SimTime stabilization = -1;
  for (auto _ : state) {
    chaos::FaultInjector inj(mode == 2 ? dense_plan() : empty_plan(), ids, 7);
    Fig6Params p;
    p.ids = ids;
    p.net.gst = 200;
    p.net.delta = 3;
    p.net.pre_gst_loss = 0.05;
    p.net.pre_gst_max_delay = 9;
    p.seed = 5;
    p.run_for = 4000;
    p.metrics = hds::bench::metrics_sink();
    if (mode > 0) p.observers = {&inj};
    const Fig6Result res = run_fig6(p);
    stabilization = res.stabilization_time;
    benchmark::DoNotOptimize(res.broadcasts);
  }
  state.counters["stabilization_time"] = static_cast<double>(stabilization);
}
BENCHMARK(BM_Fig6_InterposerOverhead)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

HDS_BENCH_MAIN();
