#include "sim/system.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <tuple>

#include "exp/pool.h"
#include "net/codec.h"
#include "obs/profiler.h"

namespace hds {

class System::NodeEnv final : public Env {
 public:
  NodeEnv(System& sys, ProcIndex idx, ShardState& shard) : sys_(sys), idx_(idx), shard_(shard) {}

  [[nodiscard]] Id self_id() const override { return sys_.ids_.at(idx_); }

  void broadcast(Message m) override {
    // Aliveness against the owning shard's clock: under sharding the other
    // shards' clocks (and therefore System::now()) are mid-window.
    const SimTime now = shard_.sched.now();
    if (!sys_.is_alive_at(idx_, now)) return;
    double p = 1.0;
    const auto& plan = sys_.crashes_.at(idx_);
    if (plan && plan->partial_broadcast && now == plan->at) {
      p = sys_.dying_copy_delivery_prob_;
    }
    shard_.net->broadcast(idx_, std::move(m), p);
  }

  TimerId set_timer(SimTime delay) override {
    if (delay < 0) throw std::invalid_argument("set_timer: negative delay");
    TimerId id = next_timer_++;
    // The arming event's lineage, captured so the fire can point back at it.
    // Always 0 with tracing off; the extra u64 still fits Action's inline
    // capture budget, so the hot path allocates nothing either way.
    const std::uint64_t tparent = sys_.sessions_[idx_].parent;
    // The timer-arm count doubles as the lane sequence: per-owner monotone,
    // advanced only during the owner's own dispatches.
    shard_.sched.at_lane(shard_.sched.now() + delay, make_lane(LaneClass::kTimer, idx_, id),
                         [this, id, tparent] {
                           if (!sys_.is_alive_at(idx_, shard_.sched.now())) return;
                           if (sys_.trace_.enabled()) {
                             obs::CausalSession& cs = sys_.sessions_[idx_];
                             const std::uint64_t tid = cs.fresh();
                             cs.parent = tid;
                             cs.tick();
                             if (sys_.shards_ == 1) sys_.causal_obs_.parent = tid;
                             shard_.sink.record(shard_.sched.now(), shard_.sched.current_lane(),
                                                TraceEvent::Kind::kTimer, idx_, {}, tid, tparent);
                           }
                           obs::inc(sys_.m_timer_fires_);
                           HDS_PROF_SCOPE(obs::ProfSubsystem::kFdStep);
                           sys_.procs_.at(idx_)->on_timer(*this, id);
                         });
    return id;
  }

  [[nodiscard]] SimTime local_now() const override { return shard_.sched.now(); }

 private:
  System& sys_;
  ProcIndex idx_;
  ShardState& shard_;
  TimerId next_timer_ = 1;
};

System::~System() = default;

System::System(SystemConfig cfg)
    : ids_(std::move(cfg.ids)),
      crashes_(std::move(cfg.crashes)),
      dying_copy_delivery_prob_(cfg.dying_copy_delivery_prob),
      trace_(cfg.trace_capacity),
      metrics_(cfg.metrics),
      timing_(std::move(cfg.timing)) {
  if (ids_.empty()) throw std::invalid_argument("System: need at least one process");
  if (!timing_) throw std::invalid_argument("System: timing model required");
  if (crashes_.empty()) crashes_.resize(ids_.size());
  if (crashes_.size() != ids_.size()) throw std::invalid_argument("System: crash plan size != n");
  const std::size_t n = ids_.size();
  shards_ = cfg.shards == 0 ? 1 : std::min(cfg.shards, n);
  lookahead_ = timing_->min_delay();
  if (lookahead_ < 1) throw std::logic_error("System: timing model min_delay < 1");

  // Per-process rows. RNG row i is Rng::derived(seed, i): a sender's draws
  // depend only on its own dispatch sequence, which is a shard-count-
  // invariant subsequence of the canonical (time, lane) order — the reason
  // random schedules survive resharding bit-for-bit.
  rngs_.reserve(n);
  for (ProcIndex i = 0; i < n; ++i) rngs_.push_back(Rng::derived(cfg.seed, i));
  bcast_seq_.assign(n, 0);
  // Per-process causal sessions: folding the process index into the id's
  // node field keeps ids minted by different processes distinct, which the
  // lineage DAG needs now that minting is no longer serialized through one
  // session. (Node field is 16 bits; indexes wrap above 65535, which only
  // weakens dump readability, never ordering.)
  sessions_.reserve(n);
  for (ProcIndex i = 0; i < n; ++i) {
    sessions_.push_back(obs::CausalSession{obs::causal_node_base(i & 0xffff)});
  }

  procs_.resize(n);

  // Shards, their networks, and the cross-shard outboxes.
  shards_vec_.reserve(shards_);
  for (std::size_t s = 0; s < shards_; ++s) {
    shards_vec_.push_back(std::make_unique<ShardState>(&trace_));
  }
  if (shards_ > 1) pool_ = std::make_unique<exp::ShardPool>(shards_);
  frame_overhead_by_sender_.reserve(n);
  for (ProcIndex i = 0; i < n; ++i) {
    frame_overhead_by_sender_.push_back(net::frame_overhead(i, ids_[i]));
  }
  for (std::size_t s = 0; s < shards_; ++s) {
    ShardState& sh = *shards_vec_[s];
    sh.sink.set_buffered(shards_ > 1);
    sh.net = std::make_unique<Network>(
        sh.sched, *timing_, rngs_, bcast_seq_, n,
        [this, s](ProcIndex to, const std::shared_ptr<const Message>& m) { deliver(s, to, m); },
        &sh.sink, metrics_, shards_, s);
    // Causal stamping rides the trace switch: with tracing off the sessions
    // are never touched and every meta_causal_* field stays 0.
    sh.net->set_causal(trace_.enabled() ? &sessions_ : nullptr);
    // Byte accounting: estimate each broadcast's frame size with the v1 wire
    // codec, so sim runs report costs comparable with the socket substrate.
    // The per-sender envelope and the per-type codec lookup are memoized;
    // only the body is counting-encoded per broadcast, so sizes stay exact
    // even for bodies whose varint-encoded length varies run to run.
    sh.net->set_byte_meter([this, s](const Message& m, ProcIndex from) -> std::size_t {
      HDS_PROF_SCOPE(obs::ProfSubsystem::kCodecEncode);
      const net::BodyCodec* c = meter_codec_of(*shards_vec_[s], m.type);
      if (c == nullptr) return 0;
      const std::size_t body = net::encoded_body_size(*c, m);
      return frame_overhead_by_sender_[from] + net::varint_size(body) + body;
    });
    if (shards_ > 1) {
      for (auto& box : sh.outbox) box.resize(shards_);
      // The group reaches no queue before the next window, so the barrier's
      // completion step learns its arrival time from out_min.
      sh.net->set_cross_send([&sh](Network::CrossGroup g) {
        sh.out_min = std::min(sh.out_min, g.at);
        sh.outbox[sh.parity][g.dest_shard].push_back(std::move(g));
      });
    }
  }
  envs_.reserve(n);
  for (ProcIndex i = 0; i < n; ++i) {
    envs_.push_back(std::make_unique<NodeEnv>(*this, i, *shards_vec_[i % shards_]));
  }
  if (metrics_ != nullptr) m_timer_fires_ = &metrics_->counter("sim_timer_fires_total");
}

void System::set_process(ProcIndex i, std::unique_ptr<Process> p) {
  if (started_) throw std::logic_error("System: set_process after start");
  procs_.at(i) = std::move(p);
}

void System::start() {
  if (started_) throw std::logic_error("System: started twice");
  for (ProcIndex i = 0; i < procs_.size(); ++i) {
    if (!procs_[i]) throw std::logic_error("System: process not installed at index " +
                                           std::to_string(i));
  }
  started_ = true;
  for (ProcIndex i = 0; i < procs_.size(); ++i) {
    ShardState& sh = *shards_vec_[i % shards_];
    sh.sched.at_lane(0, make_lane(LaneClass::kControl, i, 0), [this, i] {
      ShardState& sh2 = *shards_vec_[i % shards_];
      if (!is_alive_at(i, sh2.sched.now())) return;
      if (trace_.enabled()) {
        // Each start is a lineage root: everything the process does from
        // here chains back to this id.
        obs::CausalSession& cs = sessions_[i];
        const std::uint64_t sid = cs.fresh();
        cs.parent = sid;
        if (shards_ == 1) causal_obs_.parent = sid;
        sh2.sink.record(0, sh2.sched.current_lane(), TraceEvent::Kind::kStart, i, {}, sid, 0);
      }
      HDS_PROF_SCOPE(obs::ProfSubsystem::kFdStep);
      procs_[i]->on_start(*envs_[i]);
    });
    if (trace_.enabled() && crashes_[i]) {
      const SimTime when = crashes_[i]->at;
      // Guarded: an injected crash may have superseded the planned one by
      // the time this event fires (inject_crash records its own event).
      sh.sched.at_lane(when, make_lane(LaneClass::kControl, i, 1), [this, i, when] {
        if (crashes_[i] && crashes_[i]->at == when) {
          ShardState& sh2 = *shards_vec_[i % shards_];
          sh2.sink.record(when, sh2.sched.current_lane(), TraceEvent::Kind::kCrash, i);
        }
      });
    }
  }
}

const net::BodyCodec* System::meter_codec_of(ShardState& sh, const std::string& type) {
  if (sh.meter_last != SIZE_MAX && sh.meter_cache[sh.meter_last].type == type) {
    return sh.meter_cache[sh.meter_last].codec;
  }
  for (std::size_t s = 0; s < sh.meter_cache.size(); ++s) {
    if (sh.meter_cache[s].type == type) {
      sh.meter_last = s;
      return sh.meter_cache[s].codec;
    }
  }
  sh.meter_cache.push_back(MeterCacheEntry{type, net::builtin_codecs().by_type(type)});
  sh.meter_last = sh.meter_cache.size() - 1;
  return sh.meter_cache[sh.meter_last].codec;
}

Scheduler& System::scheduler() {
  if (shards_ > 1) {
    throw std::logic_error("System::scheduler: raw scheduler access requires shards == 1");
  }
  return shards_vec_[0]->sched;
}

void System::set_interposer(LinkInterposer* li) {
  if (shards_ > 1) {
    throw std::logic_error("System::set_interposer: chaos interposers require shards == 1");
  }
  shards_vec_[0]->net->set_interposer(li);
}

void System::inject_crash(ProcIndex i, const std::string& why) {
  const SimTime t = now();
  auto& plan = crashes_.at(i);
  if (plan && plan->at <= t) return;  // already down, or going down this instant
  plan = CrashPlan{t, false};
  // An injected crash happens inside some dispatch; its parent is whatever
  // event the effector was reacting to.
  ShardState& sh = *shards_vec_[i % shards_];
  sh.sink.record(t, sh.sched.current_lane(), TraceEvent::Kind::kCrash, i, why, 0,
                 causal_obs_.parent);
}

void System::run_until(SimTime t) {
  if (shards_ == 1) {
    shards_vec_[0]->sched.run_until(t);
    return;
  }
  run_windows(t, UINT64_MAX);
  for (auto& sh : shards_vec_) sh->sched.advance_to(t);
  merge_trace();
}

bool System::run_all(std::uint64_t max_events) {
  if (shards_ == 1) {
    shards_vec_[0]->sched.run_all(max_events);
    return shards_vec_[0]->sched.empty();
  }
  run_windows(kSimTimeMax - lookahead_ - 1, max_events);
  merge_trace();
  for (const auto& sh : shards_vec_) {
    if (!sh->sched.empty()) return false;
  }
  return true;
}

// One run_windows call's loop state. Between windows the barrier's
// completion step is its only writer; workers read it after the barrier.
struct System::WindowLoop {
  SimTime limit;
  std::uint64_t max_events;
  SimTime end = 0;         // end of the window about to run
  SimTime prev_end = 0;    // end of the window whose outboxes are drained next
  std::size_t parity = 0;  // outbox set the window about to run pushes into
  bool stop = false;
};

void System::run_windows(SimTime t_limit, std::uint64_t max_events) {
  // Outboxes are empty between calls: the queues alone give the first window.
  for (auto& sh : shards_vec_) {
    sh->next = sh->sched.empty() ? kSimTimeMax : sh->sched.next_time();
    sh->out_min = kSimTimeMax;
    sh->failed = false;
  }
  WindowLoop w{t_limit, max_events};
  next_window(w);
  if (w.stop) return;
  std::barrier sync(static_cast<std::ptrdiff_t>(shards_), [this, &w]() noexcept {
    next_window(w);
  });
  pool_->run([&](std::size_t s) { shard_loop(s, w, [&sync] { sync.arrive_and_wait(); }); });
}

// The barrier's completion step: runs on one worker after every shard has
// arrived and before any leaves. The next window starts at the earliest of
// every shard's own next event and every group pushed in the window just run
// (those are in no queue yet). Conservative window [tmin, end): a cross-shard
// send issued at time >= tmin arrives at >= tmin + lookahead >= end. A
// process that threw ends the loop, so no worker is left waiting here.
void System::next_window(WindowLoop& w) noexcept {
  SimTime tmin = kSimTimeMax;
  bool failed = false;
  for (const auto& sh : shards_vec_) {
    tmin = std::min({tmin, sh->next, sh->out_min});
    failed = failed || sh->failed;
  }
  w.prev_end = w.end;
  w.parity ^= 1;
  w.stop = failed || tmin == kSimTimeMax || tmin > w.limit || events_executed() >= w.max_events;
  if (w.stop) return;
  w.end = std::min(tmin + lookahead_, w.limit + 1);
  ++windows_;
}

void System::shard_loop(std::size_t s, WindowLoop& w,
                        const std::function<void()>& arrive_and_wait) {
  using Clock = std::chrono::steady_clock;
  using Secs = std::chrono::duration<double>;
  ShardState& sh = *shards_vec_[s];
  std::exception_ptr err;
  const auto guarded = [&err](const auto& step) {
    if (err) return;
    try {
      step();
    } catch (...) {
      err = std::current_exception();
    }
  };
  Clock::time_point t0 = Clock::now();
  for (;;) {
    // Queue the groups the other shards pushed for this one in the previous
    // window (a shard's own box stays empty). After the last window too, so
    // run_all's emptiness check and the next call see them.
    guarded([&] {
      for (const auto& from : shards_vec_) {
        std::vector<Network::CrossGroup>& box = from->outbox[w.parity ^ 1][s];
        for (Network::CrossGroup& g : box) {
          ++sh.cross_groups;
          if (g.at < w.prev_end) ++sh.lookahead_violations;
          sh.net->schedule_fanout(g.at, g.lane, std::move(g.msg), std::move(g.tos));
        }
        box.clear();
      }
    });
    const Clock::time_point t1 = Clock::now();
    sh.time.drain_s += Secs(t1 - t0).count();
    if (w.stop) break;
    sh.parity = w.parity;
    sh.out_min = kSimTimeMax;
    guarded([&] { sh.sched.run_before(w.end); });
    sh.failed = err != nullptr;
    sh.next = sh.failed || sh.sched.empty() ? kSimTimeMax : sh.sched.next_time();
    const Clock::time_point t2 = Clock::now();
    sh.time.run_s += Secs(t2 - t1).count();
    arrive_and_wait();
    t0 = Clock::now();
    sh.time.wait_s += Secs(t0 - t2).count();
  }
  if (err) std::rethrow_exception(err);  // ShardPool rethrows it on the caller
}

void System::merge_trace() {
  if (!trace_.enabled()) return;
  merge_buf_.clear();
  for (auto& sh : shards_vec_) {
    auto& b = sh->sink.buffer();
    merge_buf_.insert(merge_buf_.end(), std::make_move_iterator(b.begin()),
                      std::make_move_iterator(b.end()));
    b.clear();
  }
  // (at, lane, sub, j) is the canonical record order — the exact sequence a
  // single-shard run feeds the ring. Feeding the merged batch through
  // record() reproduces ring eviction and dropped counts byte-for-byte.
  std::sort(merge_buf_.begin(), merge_buf_.end(),
            [](const TraceSink::Keyed& x, const TraceSink::Keyed& y) {
              return std::tie(x.at, x.lane, x.sub, x.j) < std::tie(y.at, y.lane, y.sub, y.j);
            });
  for (TraceSink::Keyed& k : merge_buf_) {
    trace_.record(k.ev.at, k.ev.kind, k.ev.proc, std::move(k.ev.msg_type), k.ev.causal_id,
                  k.ev.causal_parent);
  }
  merge_buf_.clear();
}

std::uint64_t System::events_executed() const {
  std::uint64_t total = 0;
  for (const auto& sh : shards_vec_) total += sh->sched.executed();
  return total;
}

ShardRunStats System::shard_stats() const {
  ShardRunStats out;
  out.windows = windows_;
  out.events_executed = events_executed();
  if (shards_ == 1) return out;
  for (const auto& sh : shards_vec_) {
    out.cross_groups += sh->cross_groups;
    out.lookahead_violations += sh->lookahead_violations;
    out.per_shard.push_back(sh->time);
  }
  return out;
}

NetworkStats System::net_stats() const {
  NetworkStats out;
  for (const auto& sh : shards_vec_) {
    const NetworkStats& s = sh->net->stats();
    out.broadcasts += s.broadcasts;
    out.copies_sent += s.copies_sent;
    out.copies_delivered += s.copies_delivered;
    out.copies_lost_link += s.copies_lost_link;
    out.copies_lost_dying_sender += s.copies_lost_dying_sender;
    out.copies_duplicated += s.copies_duplicated;
    out.copies_to_dead += s.copies_to_dead;
    out.bytes_sent += s.bytes_sent;
    out.bytes_received += s.bytes_received;
    out.latency_sum += s.latency_sum;
    out.latency_max = std::max(out.latency_max, s.latency_max);
    for (const auto& [type, count] : s.broadcasts_by_type) {
      out.broadcasts_by_type[type] += count;
    }
  }
  return out;
}

void System::deliver(std::size_t shard, ProcIndex to, const std::shared_ptr<const Message>& m) {
  ShardState& sh = *shards_vec_[shard];
  const SimTime now = sh.sched.now();
  if (!is_alive_at(to, now)) {
    sh.net->note_copy_to_dead();
    sh.sink.record(now, sh.sched.current_lane(), TraceEvent::Kind::kToDead, to, m->type,
                   m->meta_causal_id, m->meta_causal_parent);
    return;
  }
  sh.net->note_delivered(now - m->meta_sent_at, m->meta_wire_bytes);
  if (trace_.enabled()) {
    // Everything the handler sends is caused by this delivery; Lamport
    // receive rule on the carried clock.
    obs::CausalSession& cs = sessions_[to];
    cs.parent = m->meta_causal_id;
    cs.merge(m->meta_causal_clock);
    if (shards_ == 1) causal_obs_.parent = m->meta_causal_id;
    sh.sink.record(now, sh.sched.current_lane(), TraceEvent::Kind::kDeliver, to, m->type,
                   m->meta_causal_id, m->meta_causal_parent);
  }
  HDS_PROF_SCOPE(obs::ProfSubsystem::kFdStep);
  procs_.at(to)->on_message(*envs_.at(to), *m);
}

Env& System::env(ProcIndex i) { return *envs_.at(i); }

std::vector<ProcIndex> System::correct_set() const {
  std::vector<ProcIndex> out;
  for (ProcIndex i = 0; i < ids_.size(); ++i) {
    if (is_correct(i)) out.push_back(i);
  }
  return out;
}

Multiset<Id> System::correct_ids() const {
  Multiset<Id> out;
  for (ProcIndex i : correct_set()) out.insert(ids_[i]);
  return out;
}

Multiset<Id> System::all_ids() const { return Multiset<Id>(ids_.begin(), ids_.end()); }

std::size_t System::alive_count_at(SimTime t) const {
  std::size_t c = 0;
  for (ProcIndex i = 0; i < ids_.size(); ++i) {
    if (is_alive_at(i, t)) ++c;
  }
  return c;
}

}  // namespace hds
