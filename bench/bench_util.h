// Shared helpers for the benchmark binaries.
//
// Observability hook: every bench binary is built with HDS_BENCH_MAIN(),
// which consumes `--metrics-json=PATH` before google-benchmark parses the
// command line. When the flag is present, metrics_sink() returns a live
// registry that a benchmark can thread into its harness params, and the
// accumulated snapshot is written to PATH at exit. Without the flag,
// metrics_sink() is null and the instruments cost nothing.
#pragma once

#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>
#include <string>

#include "consensus/harness.h"
#include "obs/metrics.h"

namespace hds::bench {

// Aborts the benchmark loudly if a run violated its checked property —
// a benchmark must never quietly report numbers from a broken run.
inline void require(benchmark::State& state, bool ok, const std::string& what) {
  if (!ok) state.SkipWithError(("property violated: " + what).c_str());
}

inline obs::MetricsRegistry& metrics() {
  static obs::MetricsRegistry reg;
  return reg;
}

inline std::string& metrics_json_path() {
  static std::string path;
  return path;
}

// The registry to thread into harness params: live when --metrics-json was
// given, null otherwise (so default runs measure the uninstrumented path).
inline obs::MetricsRegistry* metrics_sink() {
  return metrics_json_path().empty() ? nullptr : &metrics();
}

// Strips --metrics-json=PATH from argv; must run before
// benchmark::Initialize, which rejects flags it does not know.
inline void consume_metrics_flag(int& argc, char** argv) {
  const std::string prefix = "--metrics-json=";
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string a = argv[r];
    if (a.rfind(prefix, 0) == 0) {
      metrics_json_path() = a.substr(prefix.size());
    } else {
      argv[w++] = argv[r];
    }
  }
  argc = w;
}

inline void dump_metrics() {
  if (metrics_json_path().empty()) return;
  std::ofstream out(metrics_json_path());
  if (!out) {
    std::cerr << "bench: cannot open " << metrics_json_path() << "\n";
    return;
  }
  out << metrics().to_json();
}

}  // namespace hds::bench

// Drop-in replacement for BENCHMARK_MAIN() with the --metrics-json hook.
#define HDS_BENCH_MAIN()                                                     \
  int main(int argc, char** argv) {                                          \
    hds::bench::consume_metrics_flag(argc, argv);                            \
    benchmark::Initialize(&argc, argv);                                      \
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;        \
    benchmark::RunSpecifiedBenchmarks();                                     \
    benchmark::Shutdown();                                                   \
    hds::bench::dump_metrics();                                              \
    return 0;                                                                \
  }
