// InstanceManager — the per-slot lifecycle of the replicated log.
//
// One record per log slot, holding the logged batch (with the epoch it was
// logged under), commit state, and — only when a leader change put the slot
// in doubt — a live Fig. 8 consensus engine deciding the slot's batch id.
// The get-or-create entry point is modeled on the RedisGears consensus
// instance registry: the first creation for an id wins, every later call
// returns the existing instance untouched, so concurrent recoveries cannot
// fork a slot's engine.
//
// Consensus messages that arrive before their slot's engine exists (a
// perfectly ordinary interleaving: a peer's recovery PROPOSE may still be in
// flight) are buffered per slot, bounded, and replayed into the engine at
// creation.
//
// GC discipline: a slot becomes collectable only once it is at or below the
// learned commit frontier (its outcome is then fixed forever). Engines are
// dropped as soon as their slot commits; the log record itself is retained
// for a configurable repair window behind the frontier, then erased. Slots
// above the frontier are never touched, decided or not.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "consensus/majority_homega.h"
#include "sim/message.h"
#include "sim/process.h"
#include "smr/types.h"

namespace hds::smr {

class InstanceManager {
 public:
  struct Config {
    std::size_t n = 0;          // replica count (the engines' n)
    std::size_t t = 0;          // crash bound (the engines' t)
    SimTime guard_poll = 4;     // engine FD re-evaluation period
    std::size_t max_buffered = 128;  // per-slot pre-creation message buffer
  };

  struct Slot {
    bool has_entry = false;       // a batch is logged here
    SmrBatch batch;
    std::int64_t epoch = 0;       // epoch the batch was logged under
    bool committed = false;
    bool decided_known = false;   // a Fig. 8 decision for this slot is known
    std::int64_t decided_id = kNoopBatchId;
    bool decision_taken = false;  // the engine's decision was consumed
    std::unique_ptr<MajorityHOmegaConsensus> engine;
    std::vector<Message> buffered;  // consensus msgs awaiting the engine
  };

  explicit InstanceManager(Config cfg) : cfg_(cfg) {}

  // The slot record, created empty on first touch / looked up afterwards.
  Slot& slot(std::int64_t s) { return slots_[s]; }
  [[nodiscard]] const Slot* find(std::int64_t s) const;
  [[nodiscard]] bool contains(std::int64_t s) const { return slots_.count(s) > 0; }

  // Get-or-create of the slot's consensus engine. On creation the engine is
  // configured with instance = slot, proposes `proposal`, is started on
  // `env`, and consumes any buffered messages; on a later call the existing
  // engine is returned as-is (the proposal argument is ignored — first
  // creation wins).
  MajorityHOmegaConsensus* get_or_create(std::int64_t s, Value proposal, const HOmegaHandle& fd,
                                         Env& env);

  // Buffers a consensus message for a slot whose engine does not exist yet.
  // Returns false (and drops the message) when the buffer is full or the
  // slot already committed — a late message for a settled slot is noise.
  bool buffer_message(std::int64_t s, const Message& m);

  // Drops engines of slots at or below `frontier` (their outcome is fixed)
  // and erases records at or below `frontier - keep` (past the repair
  // window). Never touches a slot above the frontier. Returns the number of
  // records erased.
  std::size_t gc(std::int64_t frontier, std::int64_t keep);

  // Slots above `frontier` holding an entry or an engine — the leader's
  // in-flight pipeline occupancy.
  [[nodiscard]] std::size_t open_above(std::int64_t frontier) const;

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  [[nodiscard]] std::uint64_t engines_created() const { return engines_created_; }
  [[nodiscard]] std::uint64_t records_gced() const { return records_gced_; }

  // Iteration (repair scans, promise building).
  [[nodiscard]] auto begin() const { return slots_.begin(); }
  [[nodiscard]] auto end() const { return slots_.end(); }
  [[nodiscard]] auto lower_bound(std::int64_t s) const { return slots_.lower_bound(s); }

 private:
  Config cfg_;
  std::map<std::int64_t, Slot> slots_;
  std::uint64_t engines_created_ = 0;
  std::uint64_t records_gced_ = 0;
};

}  // namespace hds::smr
