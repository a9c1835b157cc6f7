// Shared vocabulary of the benchmark: options, per-pass results, the metric
// dictionary, and the statistics every workload reports with.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.h"
#include "probe.h"

namespace hdsb {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;  // target length of the measured phase
  bool quick = false;   // smoke-test sizes
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;
};

// The substrate totals a traced pass needs beside the probes.
struct SubstrateTotals {
  std::uint64_t broadcasts = 0;
  std::uint64_t copies_delivered = 0;
  std::uint64_t bytes_sent = 0;
  double thread_s = 0;  // Σ over runs of (measured wall × callback threads)
};

// One pass (untraced or traced) over a workload.
struct PassResult {
  std::uint64_t runs = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;  // traced pass only
  // FNV-1a over the sim-domain outcomes (ops totals, log hashes,
  // stabilization and decision ticks); equal for equal schedules. Unused by
  // the real-time workload.
  std::uint64_t fingerprint = 0;
  bool deterministic = true;
  TraceTotals trace;        // traced pass only
  SubstrateTotals substrate;
  double check_s = 0;  // time inside correctness checks, kept out of every timing
};

// A broken safety property (agreement, validity, prefix or hash divergence).
// main() reports it and exits 2 without printing a result.
class SafetyViolation : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Two executions that must be identical were not (traced vs untraced pass,
// 4-shard vs 1-shard reference run). main() exits 3.
class Divergence : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
};

double median(std::vector<double> v);
// Percentile of integer tick samples, interpolated within the tick: each
// value v is spread uniformly over [v - 1/2, v + 1/2), so the result moves
// continuously with the distribution instead of jumping a whole tick.
double tick_quantile(std::vector<hds::SimTime> v, double q);

// Number of seeded runs for a workload: `base` runs fill the 10 s measured
// phase on a 4-core 2.1 GHz container; scaled by --seconds, or `quick` in
// smoke mode.
std::size_t scaled_runs(const Options& o, std::size_t base, std::size_t quick);

// Derived per-run seed: Rng::derived(seed, run).
std::uint64_t run_seed(std::uint64_t seed, std::uint64_t run);

double seconds_since(std::int64_t t0_ns);
std::int64_t mono_ns();

// The per-layer metrics every workload shares: engine, stack, send, fd,
// consensus and smr time shares, callback counts, codec cost.
void add_common_layer_metrics(PassResult& r);

// ---------------------------------------------------------------- catalogue

struct MetricInfo {
  const char* name;
  const char* unit;
  const char* workloads;  // comma-separated; nullptr = every workload
  const char* what;
};
const std::vector<MetricInfo>& e2e_metrics();
const std::vector<MetricInfo>& layer_metrics();

using WorkloadFn = PassResult (*)(const Options&, bool traced);
struct WorkloadInfo {
  const char* name;
  const char* what;
  const char* why;
  WorkloadFn run;
};
const std::vector<WorkloadInfo>& workloads();

// Defined in sim_workloads.cpp / udp_workload.cpp.
PassResult run_smr_steady(const Options& o, bool traced);
PassResult run_smr_failover(const Options& o, bool traced);
PassResult run_fd_mesh(const Options& o, bool traced);
PassResult run_consensus_sweep(const Options& o, bool traced);
PassResult run_smr_udp(const Options& o, bool traced);

}  // namespace hdsb
