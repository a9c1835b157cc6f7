// What the three SMR workloads share: a plain copy of one replica's state
// (taken on the node thread over UDP), the convergence and safety checks,
// and the smr.* layer counters.
#pragma once

#include <cstdint>
#include <vector>

#include "report.h"
#include "smr/replica.h"

namespace hdsb {

struct ReplicaSnapshot {
  bool correct = true;
  std::int64_t committed_through = 0;
  std::int64_t applied_through = 0;
  std::uint64_t log_hash = 0;
  std::uint64_t state_hash = 0;
  std::uint64_t ops_done = 0;
  std::uint64_t ops_applied = 0;
  std::uint64_t ops_deduped = 0;
  std::uint64_t batches = 0;
  std::uint64_t appends = 0;
  std::uint64_t repairs = 0;
  std::uint64_t acks = 0;
  std::uint64_t epochs = 0;
  std::uint64_t recoveries = 0;
  std::vector<std::uint64_t> chain;
};

ReplicaSnapshot snapshot_of(const hds::smr::SmrReplica& r, bool correct);

// Every correct replica applied its whole committed log, and all of them
// hold the same frontier and log hash.
bool converged(const std::vector<ReplicaSnapshot>& reps);

// Throws SafetyViolation when replicas disagree on a common applied prefix,
// when converged correct replicas hold different states, or when a run with
// no crash applied a different number of ops than its clients completed
// (exactly-once broken).
void check_replicas(const std::vector<ReplicaSnapshot>& reps, bool is_converged);

// smr.* layer counters, summed over the runs of one pass.
struct SmrCounters {
  std::uint64_t runs = 0;
  std::uint64_t ops = 0;  // completions at correct replicas
  std::uint64_t batches = 0;
  std::uint64_t appends = 0;
  std::uint64_t acks = 0;
  std::uint64_t applied = 0;
  std::uint64_t deduped = 0;
  std::uint64_t repairs = 0;
  std::uint64_t epochs = 0;
  std::uint64_t recoveries = 0;

  void add_run(const std::vector<ReplicaSnapshot>& reps);
  // `bytes`: wire bytes sent over the pass.
  void emit(PassResult& r, std::uint64_t bytes) const;
};

}  // namespace hdsb
