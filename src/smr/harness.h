// SMR experiment harness: assembles a replicated-log cluster on the sim
// substrate — HΩ oracle (the HAS[t < n/2, HΩ] setting) or the full
// OHPPolling detector stack under partial synchrony — drives the closed-loop
// client workload, quiesces it, and reports throughput, commit-latency
// percentiles and the cross-replica convergence verdict.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "consensus/harness.h"
#include "fd/oracles.h"
#include "sim/timing.h"
#include "smr/replica.h"
#include "smr/workload.h"

namespace hds::smr {

// n is ids.size(). The oracle substrate runs on one shard (see SimRun).
struct SmrSimParams : RunSpec {
  std::size_t t = 1;

  SmrConfig smr;            // n / t / replica are filled in per process
  WorkloadConfig workload;  // per-replica clients (client ids never collide)

  // The workload stops at 3/4 of run_for; the protocol keeps running after
  // that so in-flight batches land and replicas converge.
  SimTime run_for = 6000;
  // After run_for, keep running (in slices) until the correct replicas
  // converge or this cap hits; 0 = no linger.
  SimTime max_time = 0;

  // Substrate: false = HΩ oracle over AsyncTiming; true = OHPPolling
  // (Fig. 6 ▸ Corollary 2) over PartialSyncTiming.
  bool full_stack = false;
  SimTime fd_stabilize = 0;  // oracle mode
  OracleHOmega::Noise noise = OracleHOmega::Noise::kNone;
  PartialSyncTiming::Params net;  // full-stack mode
};

struct SmrReplicaStats {
  bool correct = false;
  bool leading = false;
  std::int64_t committed_through = 0;
  std::int64_t applied_through = 0;
  std::uint64_t log_hash = 0;
  std::uint64_t state_hash = 0;
  std::uint64_t ops_done = 0;        // closed-loop completions at this replica
  std::uint64_t ops_applied = 0;     // effective ops in the state machine
  std::uint64_t ops_deduped = 0;
  std::uint64_t batches_committed = 0;
  std::uint64_t appends_sent = 0;
  std::uint64_t repair_appends_sent = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t epochs_started = 0;
  std::uint64_t recovery_instances = 0;
  std::uint64_t engines_created = 0;
  std::uint64_t records_gced = 0;
  std::vector<std::uint64_t> applied_chain;
  std::vector<SimTime> latencies;
};

struct SmrSimResult {
  // Every correct replica fully applied its log, and all of them hold the
  // same applied frontier and log hash.
  bool converged = false;
  // All replicas (crashed included) agree on the common prefix of their
  // applied hash chains — the safety half, meaningful even when a run is
  // cut short.
  bool prefix_consistent = true;
  std::uint64_t ops_total = 0;  // completions across correct replicas
  double ops_per_ktick = 0;     // ops_total / end_time * 1000
  double latency_p50 = 0;       // commit latency (submit → apply at origin)
  double latency_p99 = 0;
  SimTime end_time = 0;
  std::uint64_t broadcasts = 0;
  std::map<std::string, std::uint64_t> broadcasts_by_type;
  std::vector<SmrReplicaStats> replicas;
};

SmrSimResult run_smr_sim(const SmrSimParams& p);

// Exact empirical quantile (nearest-rank with interpolation); 0 on empty.
double latency_quantile(std::vector<SimTime> v, double q);

}  // namespace hds::smr
