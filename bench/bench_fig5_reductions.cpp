// Figure 5 benchmark: the relation diagram between failure detector
// classes. Every communication-free arrow we implement is exercised as a
// query-path microbenchmark (the cost a consumer pays per detector read
// through the adapter), with a correctness counter asserting the arrow's
// target property held in a reference run.
//
// Arrows measured: AP→◇HP̄ (Lemma 2), AP→HΣ (Lemma 3), AΣ→HΣ
// (Theorem 3), ◇HP̄→HΩ (Observation 1). The communication arrows
// (Theorems 1-2) are simulated runs; their series are in
// docs/paper_series.md (tools/hds_paper). Two data-structure costs of
// those arrows' building blocks are here too: the Fig. 3 ranker's
// move-to-front and Theorem 1's label universe.
#include <memory>
#include <set>

#include "bench_util.h"
#include "fd/impl/alive_ranker.h"
#include "fd/oracles.h"
#include "fd/reduce/ap_to_hsigma.h"
#include "fd/reduce/ap_to_ohp.h"
#include "fd/reduce/asigma_to_hsigma.h"
#include "fd/reduce/ohp_to_homega.h"
#include "fd/reduce/sigma_to_hsigma.h"
#include "sim/system.h"

namespace {

using namespace hds;

struct Fixture {
  GroundTruth gt;
  SimTime now = 1000;  // past stabilization

  Fixture(std::size_t n, std::size_t correct) {
    gt.ids.assign(n, kBottomId);
    gt.correct.assign(n, false);
    for (std::size_t i = 0; i < correct; ++i) gt.correct[i] = true;
  }
  ClockFn clock() {
    return [this] { return now; };
  }
};

void BM_Lemma2_ApToOhpQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture f(n, n - n / 3);
  OracleAP ap(f.gt, f.clock(), 0);
  ApToOhp red(ap.handle(0));
  std::size_t size = 0;
  for (auto _ : state) {
    auto m = red.h_trusted();
    size = m.size();
    benchmark::DoNotOptimize(m);
  }
  state.counters["trusted_size"] = static_cast<double>(size);
  hds::bench::require(state, size == f.gt.correct_count(), "Lemma 2 output size");
}
BENCHMARK(BM_Lemma2_ApToOhpQuery)->Arg(8)->Arg(64)->Arg(512);

void BM_Lemma3_ApToHSigmaQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture f(n, n - n / 3);
  OracleAP ap(f.gt, f.clock(), 0);
  ApToHSigma red(ap.handle(0));
  std::size_t quora = 0;
  for (auto _ : state) {
    auto s = red.snapshot();
    quora = s.quora.size();
    benchmark::DoNotOptimize(s);
  }
  state.counters["quora"] = static_cast<double>(quora);
}
BENCHMARK(BM_Lemma3_ApToHSigmaQuery)->Arg(8)->Arg(64)->Arg(512);

void BM_Theorem3_ASigmaToHSigmaQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fixture f(n, n - n / 3);
  OracleASigma src(f.gt, f.clock(), 0);
  ASigmaToHSigma red(src.handle(0));
  std::size_t quora = 0;
  for (auto _ : state) {
    auto s = red.snapshot();
    quora = s.quora.size();
    benchmark::DoNotOptimize(s);
  }
  state.counters["quora"] = static_cast<double>(quora);
}
BENCHMARK(BM_Theorem3_ASigmaToHSigmaQuery)->Arg(8)->Arg(64)->Arg(512);

void BM_Observation1_OhpToHOmegaQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  // Homonymous ground truth with many distinct ids: min extraction scans
  // the multiset head only, but building the multiset dominates.
  Fixture f(n, n);
  for (std::size_t i = 0; i < n; ++i) f.gt.ids[i] = static_cast<Id>(i % 7 + 1);
  OracleOHP src(f.gt, f.clock(), 0);
  OhpToHOmega red(src.handle(0), f.gt.ids[0]);
  HOmegaOut out;
  for (auto _ : state) {
    out = red.h_omega();
    benchmark::DoNotOptimize(out);
  }
  state.counters["leader"] = static_cast<double>(out.leader);
  state.counters["multiplicity"] = static_cast<double>(out.multiplicity);
}
BENCHMARK(BM_Observation1_OhpToHOmegaQuery)->Arg(8)->Arg(64)->Arg(512);

void BM_Fig3_MoveToFrontThroughput(benchmark::State& state) {
  // Data-structure cost: one ALIVE handling at list size n.
  const auto n = static_cast<std::size_t>(state.range(0));
  AliveRanker fd(1000000);
  SystemConfig cfg;
  cfg.ids = {1};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  System sys(std::move(cfg));
  for (std::size_t i = 0; i < n; ++i) {
    fd.on_message(sys.env(0), make_message(AliveRanker::kMsgType, AliveMsg{static_cast<Id>(i)}));
  }
  Id next = 0;
  for (auto _ : state) {
    fd.on_message(sys.env(0), make_message(AliveRanker::kMsgType, AliveMsg{next}));
    next = (next + 1) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Iterations capped: the detector's built-in trajectory records every list
// change, so unbounded iteration would grow memory without bound.
BENCHMARK(BM_Fig3_MoveToFrontThroughput)->Arg(16)->Arg(256)->Arg(4096)->Iterations(5000);

void BM_Theorem1_LabelUniverseBlowup(benchmark::State& state) {
  // Cost of materializing {s ⊆ I(Pi) : id ∈ s}: 2^(n-1) labels.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::set<Id> membership;
  for (Id i = 1; i <= n; ++i) membership.insert(i);
  std::size_t labels = 0;
  for (auto _ : state) {
    auto out = labels_of_membership(membership, 1);
    labels = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["labels"] = static_cast<double>(labels);
}
BENCHMARK(BM_Theorem1_LabelUniverseBlowup)->Arg(4)->Arg(8)->Arg(12)->Arg(16);

}  // namespace

HDS_BENCH_MAIN();
