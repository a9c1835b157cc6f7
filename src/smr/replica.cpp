#include "smr/replica.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "consensus/messages.h"

namespace hds::smr {

namespace {

constexpr std::size_t kMaxBatchOps = 32;   // ops per batch
constexpr std::size_t kMaxInflight = 64;   // open slots above the commit frontier
constexpr std::int64_t kGcKeep = 256;      // applied slots retained for repair
constexpr std::size_t kRepairWindow = 64;  // committed entries re-broadcast per repair tick
constexpr std::size_t kMaxForward = 128;   // pending ops piggybacked per follower ack

}  // namespace

// Per-slot Env wrapper handed to the Fig. 8 engines: forwards everything to
// the real Env but records which slot owns each timer the engine arms, so
// the replica can route timer fires back to the right engine. Engines never
// retain the Env beyond a call, so rebinding per call is safe.
class SmrReplica::SlotEnv final : public Env {
 public:
  SlotEnv(SmrReplica* owner, std::int64_t slot) : owner_(owner), slot_(slot) {}

  void bind(Env& real) { real_ = &real; }

  [[nodiscard]] Id self_id() const override { return real_->self_id(); }
  void broadcast(Message m) override { real_->broadcast(std::move(m)); }
  TimerId set_timer(SimTime delay) override {
    const TimerId id = real_->set_timer(delay);
    owner_->slot_timers_[id] = slot_;
    return id;
  }
  [[nodiscard]] SimTime local_now() const override { return real_->local_now(); }

 private:
  SmrReplica* owner_;
  std::int64_t slot_;
  Env* real_ = nullptr;
};

SmrReplica::SmrReplica(SmrConfig cfg, const HOmegaHandle& fd, WorkloadConfig wl)
    : cfg_(cfg),
      fd_(&fd),
      driver_(wl, cfg.replica),
      im_(InstanceManager::Config{cfg.n, cfg.t, cfg.guard_poll, 128}) {}

SmrReplica::~SmrReplica() = default;

void SmrReplica::attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels) {
  if (reg == nullptr) {
    m_ops_applied_ = m_ops_deduped_ = m_batches_ = m_appends_ = m_repair_appends_ = nullptr;
    m_acks_ = m_epoch_changes_ = m_recovery_instances_ = m_instances_gced_ = nullptr;
    m_commit_frontier_ = m_applied_frontier_ = m_inflight_ = m_leading_ = nullptr;
    m_commit_latency_ = m_batch_ops_ = nullptr;
    return;
  }
  m_ops_applied_ = &reg->counter("smr_ops_applied_total", labels);
  m_ops_deduped_ = &reg->counter("smr_ops_deduped_total", labels);
  m_batches_ = &reg->counter("smr_batches_committed_total", labels);
  m_appends_ = &reg->counter("smr_appends_total", labels);
  m_repair_appends_ = &reg->counter("smr_repair_appends_total", labels);
  m_acks_ = &reg->counter("smr_acks_total", labels);
  m_epoch_changes_ = &reg->counter("smr_epoch_changes_total", labels);
  m_recovery_instances_ = &reg->counter("smr_recovery_instances_total", labels);
  m_instances_gced_ = &reg->counter("smr_instances_gced_total", labels);
  m_commit_frontier_ = &reg->gauge("smr_commit_frontier", labels);
  m_applied_frontier_ = &reg->gauge("smr_applied_frontier", labels);
  m_inflight_ = &reg->gauge("smr_instances_inflight", labels);
  m_leading_ = &reg->gauge("smr_leading", labels);
  m_commit_latency_ = &reg->histogram("smr_commit_latency", obs::latency_buckets(), labels);
  m_batch_ops_ = &reg->histogram("smr_batch_ops", obs::size_buckets(), labels);
}

void SmrReplica::on_start(Env& env) {
  const SimTime now = env.local_now();
  peers_.assign(cfg_.n, PeerState{});
  enqueue_local(driver_.start(now));
  lease_timer_ = env.set_timer(cfg_.lease_poll);
  // Acks staggered by replica index so the periodic broadcasts of n
  // replicas don't land on the same tick.
  ack_timer_ = env.set_timer(cfg_.ack_interval + static_cast<SimTime>(cfg_.replica));
  obs::set(m_leading_, 0);
}

void SmrReplica::on_message(Env& env, const Message& m) {
  if (m.type == kSmrAppendType) {
    if (const auto* b = m.as<SmrAppendMsg>()) on_append(env, *b);
  } else if (m.type == kSmrAckType) {
    if (const auto* b = m.as<SmrAckMsg>()) on_ack(env, *b);
  } else if (m.type == kSmrNewEpochType) {
    if (const auto* b = m.as<SmrNewEpochMsg>()) on_new_epoch(env, *b);
  } else if (m.type == kSmrPromiseType) {
    if (const auto* b = m.as<SmrPromiseMsg>()) on_promise(env, *b);
  } else if (m.type == kSmrProposeType) {
    if (const auto* b = m.as<SmrProposeMsg>()) on_propose(env, *b);
  } else if (m.type == kDecideType) {
    if (const auto* b = m.as<DecideMsg>()) {
      const std::int64_t s = b->instance;
      if (s <= applied_through_) return;
      InstanceManager::Slot& rec = im_.slot(s);
      if (rec.committed) return;
      if (rec.engine != nullptr) {
        rec.engine->on_message(slot_env(s, env), m);
        pump_engine(env, s);
      } else {
        on_decide(env, s, b->v);
      }
    }
  } else if (m.type == kCoordType) {
    if (const auto* b = m.as<CoordMsg>()) route_consensus(env, m, b->instance);
  } else if (m.type == kPh0Type) {
    if (const auto* b = m.as<Ph0Msg>()) route_consensus(env, m, b->instance);
  } else if (m.type == kPh1Type) {
    if (const auto* b = m.as<Ph1Msg>()) route_consensus(env, m, b->instance);
  } else if (m.type == kPh2Type) {
    if (const auto* b = m.as<Ph2Msg>()) route_consensus(env, m, b->instance);
  }
  // Anything else belongs to other components of the stack (FD traffic).
}

void SmrReplica::on_timer(Env& env, TimerId id) {
  if (id == lease_timer_) {
    lease_tick(env);
    return;
  }
  if (id == ack_timer_) {
    ack_tick(env);
    return;
  }
  if (id == batch_timer_) {
    batch_tick(env);
    return;
  }
  const auto it = slot_timers_.find(id);
  if (it == slot_timers_.end()) return;
  const std::int64_t s = it->second;
  slot_timers_.erase(it);
  const InstanceManager::Slot* rec = im_.find(s);
  if (rec == nullptr || rec->engine == nullptr) return;  // slot settled meanwhile
  im_.slot(s).engine->on_timer(slot_env(s, env), id);
  pump_engine(env, s);
}

// ------------------------------------------------------------ plumbing

Env& SmrReplica::slot_env(std::int64_t slot, Env& real) {
  std::unique_ptr<SlotEnv>& up = slot_envs_[slot];
  if (up == nullptr) up = std::make_unique<SlotEnv>(this, slot);
  up->bind(real);
  return *up;
}

void SmrReplica::route_consensus(Env& env, const Message& m, std::int64_t instance) {
  if (instance <= applied_through_) return;
  const InstanceManager::Slot* rec = im_.find(instance);
  if (rec != nullptr && rec->committed) return;
  if (rec != nullptr && rec->engine != nullptr) {
    im_.slot(instance).engine->on_message(slot_env(instance, env), m);
    pump_engine(env, instance);
    return;
  }
  im_.buffer_message(instance, m);
}

void SmrReplica::pump_engine(Env& env, std::int64_t slot) {
  InstanceManager::Slot& rec = im_.slot(slot);
  if (rec.engine == nullptr || !rec.engine->done() || rec.decision_taken) return;
  rec.decision_taken = true;
  const Value v = rec.engine->decision().value;
  settle_decided(env, slot, v);
  advance_commit_frontier();
  apply_ready(env);
  maybe_finish_recovery_decisions(env);
}

// -------------------------------------------------------- epoch machinery

void SmrReplica::observe_epoch(std::int64_t e) {
  if (e > promised_epoch_) promised_epoch_ = e;
  if (e > current_epoch_) {
    current_epoch_ = e;
    obs::inc(m_epoch_changes_);
    if (leading_ && epoch_owner(e) != cfg_.replica) step_down();
    if (recovering_ && e > recovery_epoch_) {
      recovering_ = false;
      recovery_proposed_ = false;
      promises_.clear();
      recovery_pending_.clear();
    }
  }
}

void SmrReplica::step_down() {
  leading_ = false;
  recovering_ = false;
  recovery_proposed_ = false;
  promises_.clear();
  recovery_pending_.clear();
  // In-flight ops are re-batched (or re-forwarded) later; the state
  // machine's dedup makes the retry exactly-once.
  inflight_ops_.clear();
  obs::set(m_leading_, 0);
}

void SmrReplica::lease_tick(Env& env) {
  const HOmegaOut h = fd_->h_omega();
  // Lead only while uniquely carrying the HΩ leader identifier: with
  // multiplicity > 1 several homonyms would all claim the lease.
  const bool want = h.leader != kBottomId && h.leader == env.self_id() && h.multiplicity == 1;
  const SimTime now = env.local_now();
  if (!want) {
    if (leading_ || recovering_) step_down();
  } else if (!leading_ && !recovering_) {
    start_epoch(env);
  } else if (recovering_ && now - recovery_started_ >= 8 * cfg_.lease_poll) {
    // Recovery stalled (lost messages, slow peers): re-broadcast its
    // current phase. Receivers treat the duplicates idempotently.
    recovery_started_ = now;
    if (!recovery_proposed_) {
      env.broadcast(make_message(kSmrNewEpochType,
                                 SmrNewEpochMsg{recovery_epoch_, recovery_from_, cfg_.replica}));
    } else {
      for (const std::int64_t s : recovery_pending_) {
        const InstanceManager::Slot* rec = im_.find(s);
        if (rec != nullptr && rec->has_entry) {
          env.broadcast(
              make_message(kSmrProposeType, SmrProposeMsg{recovery_epoch_, s, rec->batch}));
        }
      }
    }
  }
  lease_timer_ = env.set_timer(cfg_.lease_poll);
}

void SmrReplica::start_epoch(Env& env) {
  // Smallest epoch above everything observed that this replica owns.
  const std::int64_t n = static_cast<std::int64_t>(cfg_.n);
  std::int64_t e = std::max(promised_epoch_, current_epoch_) + 1;
  e += (static_cast<std::int64_t>(cfg_.replica) - (e % n) + n) % n;
  promised_epoch_ = e;
  current_epoch_ = e;
  recovering_ = true;
  recovery_proposed_ = false;
  recovery_epoch_ = e;
  recovery_from_ = committed_through_ + 1;
  recovery_started_ = env.local_now();
  promises_.clear();
  recovery_pending_.clear();
  ++epochs_started_;
  obs::inc(m_epoch_changes_);
  env.broadcast(make_message(kSmrNewEpochType, SmrNewEpochMsg{e, recovery_from_, cfg_.replica}));
}

void SmrReplica::on_new_epoch(Env& env, const SmrNewEpochMsg& ne) {
  if (ne.epoch < promised_epoch_) return;  // promise discipline
  observe_epoch(ne.epoch);
  // Promise: report every logged slot from the asker's frontier up —
  // including committed ones, so a leader that fell behind catches up.
  SmrPromiseMsg pr{ne.epoch, cfg_.replica, committed_through_, {}};
  for (auto it = im_.lower_bound(ne.from_slot); it != im_.end(); ++it) {
    const InstanceManager::Slot& rec = it->second;
    if (rec.has_entry) {
      pr.entries.push_back(SmrLogRec{it->first, rec.epoch, rec.committed, rec.batch});
    }
  }
  env.broadcast(make_message(kSmrPromiseType, std::move(pr)));
}

void SmrReplica::on_promise(Env& env, const SmrPromiseMsg& pr) {
  if (!recovering_ || pr.epoch != recovery_epoch_) return;  // not collecting this epoch
  promises_.emplace(pr.replica, pr);  // first promise per replica wins
  // Entries the promiser knows committed are settled facts — adopt them.
  for (const SmrLogRec& lr : pr.entries) {
    if (!lr.committed || lr.slot <= committed_through_) continue;
    InstanceManager::Slot& rec = im_.slot(lr.slot);
    if (rec.committed) continue;
    rec.has_entry = true;
    rec.batch = lr.batch;
    rec.epoch = lr.epoch;
    rec.decided_known = true;
    rec.decided_id = lr.batch.id;
    note_committed(lr.slot);
  }
  advance_commit_frontier();
  apply_ready(env);
  if (recovering_ && !recovery_proposed_ && promises_.size() >= quorum()) finish_recovery(env);
}

void SmrReplica::finish_recovery(Env& env) {
  recovery_proposed_ = true;
  // Chosen batch per in-doubt slot: highest logging epoch across the
  // promise quorum and our own log (the Paxos phase-1 rule); unreported
  // slots become no-ops.
  std::map<std::int64_t, SmrLogRec> chosen;
  std::int64_t top = committed_through_;
  const auto consider = [&](std::int64_t slot, std::int64_t epoch, const SmrBatch& batch) {
    if (slot <= committed_through_) return;
    top = std::max(top, slot);
    auto [it, fresh] = chosen.emplace(slot, SmrLogRec{slot, epoch, false, batch});
    if (!fresh && epoch > it->second.epoch) it->second = SmrLogRec{slot, epoch, false, batch};
  };
  for (const auto& [r, pr] : promises_) {
    for (const SmrLogRec& lr : pr.entries) consider(lr.slot, lr.epoch, lr.batch);
  }
  for (auto it = im_.lower_bound(committed_through_ + 1); it != im_.end(); ++it) {
    if (it->second.has_entry) consider(it->first, it->second.epoch, it->second.batch);
  }
  recovery_top_ = top;
  for (std::int64_t s = committed_through_ + 1; s <= top; ++s) {
    InstanceManager::Slot& rec = im_.slot(s);
    if (rec.committed) continue;
    SmrBatch b;  // id 0 = no-op filler for holes
    const auto it = chosen.find(s);
    if (it != chosen.end()) b = it->second.batch;
    rec.has_entry = true;
    rec.batch = b;
    rec.epoch = recovery_epoch_;
    env.broadcast(make_message(kSmrProposeType, SmrProposeMsg{recovery_epoch_, s, b}));
    im_.get_or_create(s, b.id, *fd_, slot_env(s, env));
    ++recovery_instances_;
    obs::inc(m_recovery_instances_);
    recovery_pending_.insert(s);
  }
  // An instance may decide synchronously (n − t = 1); consume now.
  const std::set<std::int64_t> pending = recovery_pending_;
  for (const std::int64_t s : pending) pump_engine(env, s);
  advance_commit_frontier();
  apply_ready(env);
  maybe_finish_recovery_decisions(env);
}

void SmrReplica::maybe_finish_recovery_decisions(Env& env) {
  if (recovering_ && recovery_proposed_ && recovery_pending_.empty()) become_leader(env);
}

void SmrReplica::become_leader(Env& env) {
  leading_ = true;
  recovering_ = false;
  recovery_proposed_ = false;
  promises_.clear();
  recovery_pending_.clear();
  inflight_ops_.clear();
  next_slot_ = std::max(committed_through_, recovery_top_);
  commits_broadcast_through_ = committed_through_;
  obs::set(m_leading_, 1);
  if (batch_timer_ == 0) batch_timer_ = env.set_timer(cfg_.batch_interval);
  flush_batches(env);
}

void SmrReplica::on_propose(Env& env, const SmrProposeMsg& pp) {
  if (pp.epoch < promised_epoch_) return;  // promise discipline: a stale
  // recovery cannot reach its n−t phase-1 threshold and wedges harmlessly
  observe_epoch(pp.epoch);
  if (pp.slot <= applied_through_) return;
  InstanceManager::Slot& rec = im_.slot(pp.slot);
  if (!rec.committed) {
    if (!(rec.decided_known && rec.decided_id != pp.batch.id)) {
      rec.has_entry = true;
      rec.batch = pp.batch;
      rec.epoch = pp.epoch;
      if (rec.decided_known) note_committed(pp.slot);
    }
    // Propose exactly the leader's choice: first creation wins, so a
    // duplicate or a concurrent creation cannot change the proposal.
    im_.get_or_create(pp.slot, pp.batch.id, *fd_, slot_env(pp.slot, env));
    pump_engine(env, pp.slot);
  }
  advance_commit_frontier();
  apply_ready(env);
}

// ---------------------------------------------------------- fast path

void SmrReplica::on_append(Env& env, const SmrAppendMsg& a) {
  const bool fresh = a.epoch >= promised_epoch_;
  if (fresh) {
    observe_epoch(a.epoch);
    peers_[epoch_owner(a.epoch)].heard_at = env.local_now();
  }
  // Commit records settle slots regardless of the carrying epoch:
  // commitment is final, and a repair append from a deposed (or
  // never-leading) peer is tagged with whatever epoch that peer last saw.
  // The promise discipline below only guards UNCOMMITTED entries.
  for (const SmrCommitRec& cr : a.commits) settle_decided(env, cr.slot, cr.id);
  if (a.slot > applied_through_) {
    InstanceManager::Slot& rec = im_.slot(a.slot);
    if (!rec.committed) {
      const bool matches_decision = rec.decided_known && rec.decided_id == a.batch.id;
      const bool contradicts_decision = rec.decided_known && rec.decided_id != a.batch.id;
      if (matches_decision || (fresh && !contradicts_decision)) {
        rec.has_entry = true;
        rec.batch = a.batch;
        rec.epoch = a.epoch;
        if (rec.decided_known) note_committed(a.slot);
      }
    }
  }
  advance_commit_frontier();
  apply_ready(env);
  maybe_finish_recovery_decisions(env);
}

void SmrReplica::on_ack(Env& env, const SmrAckMsg& a) {
  if (a.replica < peers_.size()) {
    PeerState& p = peers_[a.replica];
    p.heard_at = env.local_now();
    p.applied_through = std::max(p.applied_through, a.applied_through);
    p.epoch = a.epoch;
    p.logged_through = a.logged_through;  // commit counting re-checks the epoch
  }
  apply_commit_records(env, a.commits);
  if (a.epoch > promised_epoch_) observe_epoch(a.epoch);
  if (leading_) {
    for (const SmrOp& op : a.pending) {
      if (kv_.applied_seq(op.client) >= op.seq) continue;
      const auto key = std::make_pair(op.client, op.seq);
      if (inflight_ops_.count(key) > 0) continue;
      forwarded_.emplace(key, op);
    }
    try_commit_by_acks();
  }
  advance_commit_frontier();
  apply_ready(env);
}

std::int64_t SmrReplica::self_logged_through() const {
  std::int64_t s = committed_through_;
  while (true) {
    const InstanceManager::Slot* rec = im_.find(s + 1);
    if (rec == nullptr) break;
    if (!(rec->committed || (rec->has_entry && rec->epoch == current_epoch_))) break;
    ++s;
  }
  return s;
}

void SmrReplica::ack_tick(Env& env) {
  SmrAckMsg a;
  a.epoch = current_epoch_;
  a.replica = cfg_.replica;
  a.logged_through = self_logged_through();
  a.applied_through = applied_through_;
  a.commit_frontier = committed_through_;
  a.commits =
      commit_records_since(committed_through_ - static_cast<std::int64_t>(kMaxInflight));
  if (!leading_) {
    // The follower→leader op channel: re-included until applied; the state
    // machine's dedup makes the repetition exactly-once.
    for (const auto& [key, op] : local_pending_) {
      if (a.pending.size() >= kMaxForward) break;
      a.pending.push_back(op);
    }
  }
  env.broadcast(make_message(kSmrAckType, std::move(a)));
  ++acks_sent_;
  obs::inc(m_acks_);
  // Repair is NOT a leader privilege: it only ever re-sends entries that
  // are committed locally, and committed content is final no matter who
  // carries it. Tying repair to the lease would leave a trailing peer
  // stranded whenever HΩ is between leaders — exactly the quiet period
  // after a churny run when repair matters most.
  repair_peers(env);
  ack_timer_ = env.set_timer(cfg_.ack_interval);
}

void SmrReplica::batch_tick(Env& env) {
  if (!leading_) {
    batch_timer_ = 0;  // re-armed by become_leader
    return;
  }
  flush_batches(env);
  batch_timer_ = env.set_timer(cfg_.batch_interval);
}

void SmrReplica::flush_batches(Env& env) {
  if (!leading_) return;
  while (im_.open_above(committed_through_) < kMaxInflight) {
    SmrBatch b;
    const auto gather = [&](const auto& pool) {
      for (const auto& [key, op] : pool) {
        if (b.ops.size() >= kMaxBatchOps) break;
        if (inflight_ops_.count(key) > 0) continue;
        if (kv_.applied_seq(key.first) >= key.second) continue;
        b.ops.push_back(op);
      }
    };
    gather(local_pending_);
    if (b.ops.size() < kMaxBatchOps) gather(forwarded_);
    if (b.ops.empty()) break;
    b.id = make_batch_id(cfg_.replica, ++batch_seq_);
    const std::int64_t s = ++next_slot_;
    InstanceManager::Slot& rec = im_.slot(s);
    rec.has_entry = true;
    rec.batch = b;
    rec.epoch = current_epoch_;
    for (const SmrOp& op : b.ops) inflight_ops_.insert({op.client, op.seq});
    SmrAppendMsg ap{current_epoch_, s, b, commit_records_since(commits_broadcast_through_)};
    commits_broadcast_through_ = committed_through_;
    env.broadcast(make_message(kSmrAppendType, std::move(ap)));
    ++appends_sent_;
    obs::inc(m_appends_);
  }
  try_commit_by_acks();
  apply_ready(env);
}

void SmrReplica::try_commit_by_acks() {
  if (!leading_) return;
  while (true) {
    const std::int64_t s = committed_through_ + 1;
    const InstanceManager::Slot* rec = im_.find(s);
    if (rec == nullptr) break;
    if (rec->committed) {
      ++committed_through_;
      continue;
    }
    if (!rec->has_entry || rec->epoch != current_epoch_) break;
    std::size_t have = 1;  // self: the entry is logged at the current epoch
    for (std::size_t r = 0; r < peers_.size(); ++r) {
      if (r == cfg_.replica) continue;
      if (peers_[r].epoch == current_epoch_ && peers_[r].logged_through >= s) ++have;
    }
    if (have < quorum()) break;
    note_committed(s);
    ++committed_through_;
  }
  obs::set(m_commit_frontier_, committed_through_);
}

// ------------------------------------------------------ commit and apply

void SmrReplica::note_committed(std::int64_t slot) {
  InstanceManager::Slot& rec = im_.slot(slot);
  if (rec.committed) return;
  rec.committed = true;
  if (rec.batch.id != kNoopBatchId) {
    ++batches_committed_;
    obs::inc(m_batches_);
    obs::observe(m_batch_ops_, static_cast<std::int64_t>(rec.batch.ops.size()));
  }
}

void SmrReplica::settle_decided(Env& env, std::int64_t slot, std::int64_t id) {
  (void)env;
  if (slot <= applied_through_) return;
  InstanceManager::Slot& rec = im_.slot(slot);
  recovery_pending_.erase(slot);
  if (rec.committed) return;
  rec.decided_known = true;
  rec.decided_id = id;
  if (id == kNoopBatchId) {
    rec.has_entry = true;
    rec.batch = SmrBatch{};
    note_committed(slot);
  } else if (rec.has_entry && rec.batch.id == id) {
    note_committed(slot);
  } else if (rec.has_entry) {
    // Our logged body lost; drop it and wait for the committed one (a
    // repair append carries body + commit record together).
    rec.has_entry = false;
    rec.batch = SmrBatch{};
  }
}

void SmrReplica::apply_commit_records(Env& env, const std::vector<SmrCommitRec>& recs) {
  for (const SmrCommitRec& cr : recs) settle_decided(env, cr.slot, cr.id);
  if (!recs.empty()) {
    advance_commit_frontier();
    apply_ready(env);
    maybe_finish_recovery_decisions(env);
  }
}

std::vector<SmrCommitRec> SmrReplica::commit_records_since(std::int64_t from) const {
  std::vector<SmrCommitRec> out;
  for (auto it = im_.lower_bound(std::max<std::int64_t>(from, 0) + 1);
       it != im_.end() && it->first <= committed_through_; ++it) {
    if (it->second.committed) out.push_back(SmrCommitRec{it->first, it->second.batch.id});
  }
  return out;
}

void SmrReplica::advance_commit_frontier() {
  while (true) {
    const InstanceManager::Slot* rec = im_.find(committed_through_ + 1);
    if (rec == nullptr || !rec->committed) break;
    ++committed_through_;
  }
  obs::set(m_commit_frontier_, committed_through_);
}

void SmrReplica::apply_ready(Env& env) {
  while (true) {
    const std::int64_t s = applied_through_ + 1;
    const InstanceManager::Slot* recp = im_.find(s);
    if (recp == nullptr || !recp->committed || !recp->has_entry) break;
    const SmrBatch batch = recp->batch;
    const std::vector<SmrOp> effective = kv_.apply(s, batch);
    applied_chain_.push_back(kv_.log_hash());
    ++applied_through_;
    obs::inc(m_ops_applied_, effective.size());
    obs::inc(m_ops_deduped_, batch.ops.size() - effective.size());
    for (const SmrOp& op : batch.ops) {
      const auto key = std::make_pair(op.client, op.seq);
      inflight_ops_.erase(key);
      local_pending_.erase(key);
      forwarded_.erase(key);
    }
    const SimTime now = env.local_now();
    for (const SmrOp& op : effective) {
      // Apply at the origin replica is the client's ack: completes the
      // closed loop and records the commit latency.
      const std::size_t before = driver_.latencies().size();
      const std::optional<SmrOp> next = driver_.on_applied(op.client, op.seq, now);
      if (driver_.latencies().size() > before) {
        obs::observe(m_commit_latency_, driver_.latencies().back());
      }
      if (next.has_value()) enqueue_local({*next});
    }
  }
  obs::set(m_applied_frontier_, applied_through_);
  obs::set(m_inflight_, static_cast<std::int64_t>(im_.open_above(committed_through_)));
  collect_garbage();
}

void SmrReplica::collect_garbage() {
  // The erase frontier follows the slowest peer, so a laggard (or a
  // supervised respawn) can still be repaired from the retained log. A
  // permanently dead peer therefore pins it.
  std::int64_t learned = applied_through_;
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    if (r != cfg_.replica) learned = std::min(learned, peers_[r].applied_through);
  }
  const std::int64_t keep = (applied_through_ - learned) + kGcKeep;
  const std::size_t erased = im_.gc(applied_through_, keep);
  if (erased > 0) obs::inc(m_instances_gced_, erased);
  while (!slot_envs_.empty() && slot_envs_.begin()->first <= applied_through_) {
    slot_envs_.erase(slot_envs_.begin());
  }
}

void SmrReplica::repair_peers(Env& env) {
  std::set<std::int64_t> needed;
  for (std::size_t r = 0; r < peers_.size(); ++r) {
    if (r == cfg_.replica) continue;
    PeerState& p = peers_[r];
    if (p.heard_at == p.last_repair_heard) continue;  // no fresh ack; report in flight
    p.last_repair_heard = p.heard_at;
    if (p.applied_through >= committed_through_ ||
        p.applied_through != p.last_repair_applied) {
      // Caught up, or still making progress on its own.
      p.last_repair_applied = p.applied_through;
      p.stall_strikes = 0;
      continue;
    }
    // A fresh ack with no progress can be an honest race (the commit
    // records it needed were in flight when it was sent), so stalled means
    // TWO consecutive fresh acks with the frontier sat still.
    if (++p.stall_strikes < 2) continue;
    const std::int64_t hi = std::min(
        committed_through_, p.applied_through + static_cast<std::int64_t>(kRepairWindow));
    for (std::int64_t s = p.applied_through + 1; s <= hi; ++s) needed.insert(s);
  }
  for (const std::int64_t s : needed) {
    const InstanceManager::Slot* rec = im_.find(s);
    if (rec == nullptr || !rec->committed || !rec->has_entry) continue;
    SmrAppendMsg ap{current_epoch_, s, rec->batch, {SmrCommitRec{s, rec->batch.id}}};
    env.broadcast(make_message(kSmrAppendType, std::move(ap)));
    ++repair_appends_sent_;
    obs::inc(m_repair_appends_);
  }
}

void SmrReplica::on_decide(Env& env, std::int64_t slot, Value decided) {
  settle_decided(env, slot, decided);
  advance_commit_frontier();
  apply_ready(env);
  maybe_finish_recovery_decisions(env);
}

void SmrReplica::enqueue_local(std::vector<SmrOp> ops) {
  for (SmrOp& op : ops) {
    const auto key = std::make_pair(op.client, op.seq);
    local_pending_.emplace(key, std::move(op));
  }
}

}  // namespace hds::smr
