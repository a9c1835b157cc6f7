#include "smr_common.h"

#include <algorithm>
#include <string>

namespace hdsb {

ReplicaSnapshot snapshot_of(const hds::smr::SmrReplica& r, bool correct) {
  ReplicaSnapshot s;
  s.correct = correct;
  s.committed_through = r.committed_through();
  s.applied_through = r.applied_through();
  s.log_hash = r.kv().log_hash();
  s.state_hash = r.kv().state_hash();
  s.ops_done = r.workload().ops_done();
  s.ops_applied = r.kv().ops_applied();
  s.ops_deduped = r.kv().ops_deduped();
  s.batches = r.batches_committed();
  s.appends = r.appends_sent();
  s.repairs = r.repair_appends_sent();
  s.acks = r.acks_sent();
  s.epochs = r.epochs_started();
  s.recoveries = r.recovery_instances();
  s.chain = r.applied_chain();
  return s;
}

bool converged(const std::vector<ReplicaSnapshot>& reps) {
  const ReplicaSnapshot* first = nullptr;
  for (const ReplicaSnapshot& r : reps) {
    if (!r.correct) continue;
    if (r.applied_through != r.committed_through) return false;
    if (first == nullptr) {
      first = &r;
    } else if (r.applied_through != first->applied_through || r.log_hash != first->log_hash) {
      return false;
    }
  }
  return first != nullptr;
}

void check_replicas(const std::vector<ReplicaSnapshot>& reps, bool is_converged) {
  for (std::size_t a = 0; a < reps.size(); ++a) {
    for (std::size_t b = a + 1; b < reps.size(); ++b) {
      const std::size_t common = std::min(reps[a].chain.size(), reps[b].chain.size());
      if (common > 0 && reps[a].chain[common - 1] != reps[b].chain[common - 1]) {
        throw SafetyViolation("applied prefixes of replicas " + std::to_string(a) + " and " +
                              std::to_string(b) + " diverge by slot " + std::to_string(common));
      }
    }
  }
  if (!is_converged) return;
  bool all_correct = true;
  std::uint64_t done = 0;
  const ReplicaSnapshot* first = nullptr;
  for (const ReplicaSnapshot& r : reps) {
    all_correct = all_correct && r.correct;
    done += r.ops_done;
    if (!r.correct) continue;
    if (first == nullptr) first = &r;
    if (r.state_hash != first->state_hash) {
      throw SafetyViolation("converged replicas hold different state hashes");
    }
  }
  if (all_correct && first != nullptr && first->ops_applied != done) {
    throw SafetyViolation("exactly-once broken: " + std::to_string(first->ops_applied) +
                          " ops applied, " + std::to_string(done) + " completed");
  }
}

void SmrCounters::add_run(const std::vector<ReplicaSnapshot>& reps) {
  ++runs;
  std::uint64_t run_batches = 0;
  for (const ReplicaSnapshot& r : reps) {
    if (r.correct) ops += r.ops_done;
    run_batches = std::max(run_batches, r.batches);
    appends += r.appends + r.repairs;
    acks += r.acks;
    applied += r.ops_applied;
    deduped += r.ops_deduped;
    repairs += r.repairs;
    epochs += r.epochs;
    recoveries += r.recoveries;
  }
  batches += run_batches;
}

void SmrCounters::emit(PassResult& r, std::uint64_t bytes) const {
  const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto add = [&](const char* name, double v, const char* unit) {
    r.layers.push_back({name, v, unit, runs});
  };
  add("smr.ops_per_batch", per(d(ops), d(batches)), "count");
  add("smr.appends_per_batch", per(d(appends), d(batches)), "count");
  add("smr.acks_per_batch", per(d(acks), d(batches)), "count");
  add("smr.bytes_per_op", per(d(bytes), d(ops)), "B");
  add("smr.dedup_frac", per(d(deduped), d(applied + deduped)), "ratio");
  add("smr.repair_appends", per(d(repairs), d(runs)), "count");
  add("smr.epochs", per(d(epochs), d(runs)), "count");
  add("smr.recovery_instances", per(d(recoveries), d(runs)), "count");
}

}  // namespace hdsb
