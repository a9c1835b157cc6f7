// SmrReplica — one node of the client-facing replicated log.
//
// Steady state (the lease fast path): the replica that uniquely carries the
// HΩ leader identifier holds the lease for its epoch. It batches client
// operations and broadcasts ONE SMR_APPEND per batch; followers log the
// entries and answer with periodic *cumulative* SMR_ACKs, so the per-batch
// message cost converges to one broadcast. A batch commits once n−t
// replicas have it logged under the lease epoch (majority quorum, the same
// t < n/2 envelope as Fig. 8); commit knowledge piggybacks on the next
// append and on acks.
//
// Leader change (the consensus slow path): when HΩ moves, the new unique
// carrier mints a fresh epoch (epochs are owned by replica index modulo n,
// so concurrent minters never collide), collects n−t promises carrying the
// promisers' uncommitted suffixes, picks the safe batch per in-doubt slot
// (highest logging epoch — the Paxos phase-1 rule; quorum intersection
// guarantees any fast-path-committed batch is seen), and then settles every
// such slot through a full Fig. 8 consensus instance: the chosen batch is
// announced via SMR_PROPOSE and every participant proposes exactly it, so
// the instance's validity pins the decision while its agreement makes the
// outcome unconditional — even two replicas that both believe they lead
// cannot split a slot, because they feed the same instance.
//
// Convergence therefore never rests on the detector being right: HΩ only
// decides *when* the fast path runs. Promise discipline (reject lower
// epochs) plus per-epoch commit counting protect the fast path, and Fig. 8
// agreement protects every slot a leader change ever touched.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "fd/interfaces.h"
#include "obs/metrics.h"
#include "sim/process.h"
#include "smr/instance_manager.h"
#include "smr/kv.h"
#include "smr/types.h"
#include "smr/workload.h"

namespace hds::smr {

struct SmrConfig {
  std::size_t n = 0;        // replica count
  std::size_t t = 0;        // crash bound, t < n/2
  std::size_t replica = 0;  // this replica's index (deployment config, like n/t)

  SimTime batch_interval = 4;   // leader flush period
  SimTime ack_interval = 32;    // cumulative ack / forward period (>> batch_interval:
                                // this gap is what amortizes acks to ~0 per batch)
  SimTime lease_poll = 8;       // HΩ re-evaluation period
  SimTime guard_poll = 4;       // recovery engines' FD poll period
};

class SmrReplica final : public Process {
 public:
  SmrReplica(SmrConfig cfg, const HOmegaHandle& fd, WorkloadConfig wl);
  ~SmrReplica() override;

  // Registers the smr_* instruments. Call before the system starts; null
  // detaches.
  void attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels = {});

  // Quiesce: stop issuing new client ops; the protocol keeps running so
  // in-flight batches commit and replicas converge.
  void stop_workload() { driver_.stop(); }

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

  // ---- read-side (results, admin, verification) ----
  [[nodiscard]] std::int64_t committed_through() const { return committed_through_; }
  [[nodiscard]] std::int64_t applied_through() const { return applied_through_; }
  [[nodiscard]] const KvStateMachine& kv() const { return kv_; }
  [[nodiscard]] const WorkloadDriver& workload() const { return driver_; }
  [[nodiscard]] const InstanceManager& instances() const { return im_; }
  [[nodiscard]] bool leading() const { return leading_; }
  [[nodiscard]] std::int64_t current_epoch() const { return current_epoch_; }
  [[nodiscard]] std::uint64_t batches_committed() const { return batches_committed_; }
  [[nodiscard]] std::uint64_t appends_sent() const { return appends_sent_; }
  [[nodiscard]] std::uint64_t repair_appends_sent() const { return repair_appends_sent_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }
  [[nodiscard]] std::uint64_t epochs_started() const { return epochs_started_; }
  [[nodiscard]] std::uint64_t recovery_instances() const { return recovery_instances_; }
  // Hash chain: applied_chain()[k] = log hash after applying slot k+1 — the
  // prefix-consistency fingerprint the determinism and chaos checks compare.
  [[nodiscard]] const std::vector<std::uint64_t>& applied_chain() const { return applied_chain_; }

 private:
  class SlotEnv;

  struct PeerState {
    std::int64_t applied_through = 0;
    std::int64_t logged_through = 0;
    std::int64_t epoch = 0;
    SimTime heard_at = 0;
    std::int64_t last_repair_applied = -1;  // progress marker for repair pacing
    SimTime last_repair_heard = -1;         // ack freshness marker for repair pacing
    int stall_strikes = 0;                  // consecutive fresh acks without progress
  };

  [[nodiscard]] std::size_t epoch_owner(std::int64_t e) const {
    return static_cast<std::size_t>(e % static_cast<std::int64_t>(cfg_.n));
  }
  [[nodiscard]] std::size_t quorum() const { return cfg_.n - cfg_.t; }
  [[nodiscard]] std::int64_t self_logged_through() const;

  Env& slot_env(std::int64_t slot, Env& real);
  void pump_engine(Env& env, std::int64_t slot);
  void route_consensus(Env& env, const Message& m, std::int64_t instance);

  void on_append(Env& env, const SmrAppendMsg& a);
  void on_ack(Env& env, const SmrAckMsg& a);
  void on_new_epoch(Env& env, const SmrNewEpochMsg& ne);
  void on_promise(Env& env, const SmrPromiseMsg& pr);
  void on_propose(Env& env, const SmrProposeMsg& pp);
  void on_decide(Env& env, std::int64_t slot, Value decided);

  void lease_tick(Env& env);
  void ack_tick(Env& env);
  void batch_tick(Env& env);

  void start_epoch(Env& env);
  void finish_recovery(Env& env);
  void become_leader(Env& env);
  void step_down();

  void observe_epoch(std::int64_t e);  // adopt a higher epoch seen on any message
  void note_committed(std::int64_t slot);
  // A known decision (Fig. 8 DECIDE or a piggybacked commit record) for
  // `slot`: commit on id match, drop a conflicting logged body.
  void settle_decided(Env& env, std::int64_t slot, std::int64_t id);
  void apply_commit_records(Env& env, const std::vector<SmrCommitRec>& recs);
  void advance_commit_frontier();
  void try_commit_by_acks();
  void apply_ready(Env& env);
  void collect_garbage();
  void flush_batches(Env& env);
  void repair_peers(Env& env);
  void enqueue_local(std::vector<SmrOp> ops);
  [[nodiscard]] std::vector<SmrCommitRec> commit_records_since(std::int64_t from) const;
  void maybe_finish_recovery_decisions(Env& env);

  SmrConfig cfg_;
  const HOmegaHandle* fd_;
  WorkloadDriver driver_;
  InstanceManager im_;
  KvStateMachine kv_;

  // Epoch state.
  std::int64_t promised_epoch_ = 0;  // highest epoch promised/observed
  std::int64_t current_epoch_ = 0;   // epoch whose appends we accept
  bool leading_ = false;
  bool recovering_ = false;
  bool recovery_proposed_ = false;  // phase 2 (PROPOSE) already broadcast
  std::int64_t recovery_epoch_ = 0;
  std::int64_t recovery_from_ = 1;
  std::int64_t recovery_top_ = 0;  // highest slot recovery settled or re-proposed
  SimTime recovery_started_ = 0;
  std::map<std::uint64_t, SmrPromiseMsg> promises_;
  std::set<std::int64_t> recovery_pending_;  // slots awaiting their instance's decision

  // Log frontiers.
  std::int64_t committed_through_ = 0;
  std::int64_t applied_through_ = 0;
  std::int64_t next_slot_ = 0;   // last slot this leader assigned
  std::int64_t batch_seq_ = 0;   // origin-local batch id sequence
  std::int64_t commits_broadcast_through_ = 0;  // commit records already piggybacked

  // Client ops: local = this replica's clients, forwarded = received from
  // follower acks (leader only). Keyed by (client, seq) so re-forwarding
  // cannot duplicate a pending entry.
  std::map<std::pair<std::uint64_t, std::int64_t>, SmrOp> local_pending_;
  std::map<std::pair<std::uint64_t, std::int64_t>, SmrOp> forwarded_;
  std::set<std::pair<std::uint64_t, std::int64_t>> inflight_ops_;  // batched, unapplied

  std::vector<PeerState> peers_;

  // Timers.
  TimerId lease_timer_ = 0;
  TimerId ack_timer_ = 0;
  TimerId batch_timer_ = 0;
  std::map<TimerId, std::int64_t> slot_timers_;
  std::map<std::int64_t, std::unique_ptr<SlotEnv>> slot_envs_;

  // Results / instruments.
  std::vector<std::uint64_t> applied_chain_;
  std::uint64_t batches_committed_ = 0;
  std::uint64_t appends_sent_ = 0;
  std::uint64_t repair_appends_sent_ = 0;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t epochs_started_ = 0;
  std::uint64_t recovery_instances_ = 0;

  obs::Counter* m_ops_applied_ = nullptr;
  obs::Counter* m_ops_deduped_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_repair_appends_ = nullptr;
  obs::Counter* m_acks_ = nullptr;
  obs::Counter* m_epoch_changes_ = nullptr;
  obs::Counter* m_recovery_instances_ = nullptr;
  obs::Counter* m_instances_gced_ = nullptr;
  obs::Gauge* m_commit_frontier_ = nullptr;
  obs::Gauge* m_applied_frontier_ = nullptr;
  obs::Gauge* m_inflight_ = nullptr;
  obs::Gauge* m_leading_ = nullptr;
  obs::Histogram* m_commit_latency_ = nullptr;
  obs::Histogram* m_batch_ops_ = nullptr;
};

}  // namespace hds::smr
