// The event-driven homonymous system: n processes, a broadcast network with
// a pluggable timing model, and a crash schedule.
//
// Processes see only the Env interface (own id, broadcast, timers, local
// clock). Ground-truth accessors — I(Pi), I(Correct), aliveness — exist for
// oracles, checkers and benchmarks only, mirroring the paper's stance that
// Pi is a formalization device the processes do not know.
//
// Sharding (SystemConfig::shards > 1): one run is partitioned across a pool
// of worker threads — processes round-robin by dense index, one scheduler +
// network per shard — using conservative synchronization: the lookahead is
// the timing model's min link delay, and shards advance in lock-step time
// windows [tmin, tmin + lookahead). Each worker drains what the other shards
// sent it in the previous window, runs its window, and waits at a barrier
// that picks the next one, so a cross-shard send (held in the sender's
// per-window outbox) never lands inside the window that produced it. Because
// every event carries a provenance lane (sim/lane.h) and every random draw
// comes from its process's own RNG row, the executed schedule — and with it
// the trace, the metrics, the QoS numbers and the net counters — is
// byte-identical at any shard count, including shards=1, which runs the
// plain single-queue engine with zero added overhead.
//
// Out of scope at shards > 1 (these force or require a single shard):
// chaos interposers/injectors, online monitors, mid-run observers that read
// System state between events. scheduler() and set_interposer() throw.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/multiset.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "sim/network.h"
#include "sim/process.h"
#include "sim/scheduler.h"
#include "sim/timing.h"
#include "sim/trace_sink.h"
#include "sim/tracelog.h"

namespace hds {

namespace net {
struct BodyCodec;  // net/codec.h
}
namespace exp {
class ShardPool;  // exp/pool.h
}

struct CrashPlan {
  SimTime at = 0;
  // When true, a broadcast issued exactly at the crash instant reaches an
  // arbitrary subset of processes ("if a process crashes while broadcasting
  // a message, the message is received by an arbitrary subset").
  bool partial_broadcast = false;
};

struct SystemConfig {
  std::vector<Id> ids;                            // ids[i] = identity of process i; size n
  std::unique_ptr<TimingModel> timing;            // shared by all links
  std::vector<std::optional<CrashPlan>> crashes;  // empty, or size n
  std::uint64_t seed = 1;
  double dying_copy_delivery_prob = 0.5;  // per-copy survival of a dying broadcast
  std::size_t trace_capacity = 0;         // > 0 enables the structured event log
  // Observability sink; null disables metric collection entirely (the
  // network and the node environments then never touch an instrument).
  obs::MetricsRegistry* metrics = nullptr;
  // Worker shards the run is partitioned across (clamped to [1, n]). Any
  // value produces the same bytes; > 1 adds parallelism.
  std::size_t shards = 1;
};

// Bookkeeping of a sharded run (all zero when shards == 1).
struct ShardRunStats {
  std::uint64_t windows = 0;               // conservative windows executed
  std::uint64_t cross_groups = 0;          // fan-out groups routed via outboxes
  std::uint64_t lookahead_violations = 0;  // cross arrivals inside their own window; must be 0
  // Always 0: the per-window outboxes are unbounded vectors, so nothing
  // spills. Kept because hds_bench reports it as sim.shard_spills.
  std::uint64_t mailbox_spills = 0;
  std::uint64_t events_executed = 0;  // sum over shard schedulers
  // Wall-time split of one shard's window loop (steady_clock): draining its
  // inbound groups, running its windows, waiting at the window barrier.
  struct ShardTime {
    double run_s = 0;
    double drain_s = 0;
    double wait_s = 0;
  };
  std::vector<ShardTime> per_shard;  // indexed by shard
};

class System {
 public:
  explicit System(SystemConfig cfg);
  ~System();  // defined where NodeEnv is complete

  // Installs the algorithm at node i. Must happen before start().
  void set_process(ProcIndex i, std::unique_ptr<Process> p);

  // Schedules every process's on_start at time 0.
  void start();

  // Installs a fault-plan interposer on the broadcast network (chaos
  // subsystem; null detaches). Install before start(). Requires shards == 1.
  void set_interposer(LinkInterposer* li);

  // Dynamic crash injection — the chaos adversary's effector. The process
  // is alive through the current instant and participates in no event
  // afterwards; ground-truth accessors reflect it immediately. A process
  // already down (or crashing this instant) is left untouched; a *future*
  // planned crash is advanced to now. `why` tags the trace event.
  void inject_crash(ProcIndex i, const std::string& why = {});

  void run_until(SimTime t);
  // Runs until the event queue drains (or the safety caps hit). Returns true
  // if the queue drained.
  bool run_all(std::uint64_t max_events = 50'000'000);

  [[nodiscard]] SimTime now() const { return shards_vec_[0]->sched.now(); }
  [[nodiscard]] std::size_t n() const { return ids_.size(); }
  [[nodiscard]] Id id_of(ProcIndex i) const { return ids_.at(i); }
  [[nodiscard]] const std::vector<Id>& ids() const { return ids_; }

  // Ground truth (checkers/oracles only).
  [[nodiscard]] bool is_correct(ProcIndex i) const { return !crashes_.at(i).has_value(); }
  [[nodiscard]] bool is_alive_at(ProcIndex i, SimTime t) const {
    return !crashes_.at(i) || t <= crashes_.at(i)->at;
  }
  [[nodiscard]] bool is_alive(ProcIndex i) const { return is_alive_at(i, now()); }
  [[nodiscard]] std::vector<ProcIndex> correct_set() const;
  [[nodiscard]] Multiset<Id> correct_ids() const;  // I(Correct)
  [[nodiscard]] Multiset<Id> all_ids() const;      // I(Pi)
  [[nodiscard]] std::size_t alive_count_at(SimTime t) const;

  [[nodiscard]] Process& process(ProcIndex i) { return *procs_.at(i); }
  [[nodiscard]] Env& env(ProcIndex i);
  // The run's scheduler. Only meaningful on an unsharded system (the chaos
  // injector and tests push raw events through it); throws at shards > 1.
  [[nodiscard]] Scheduler& scheduler();
  // Per-shard network statistics merged into one view (a plain reference to
  // the single network's stats when shards == 1 would be identical — the
  // merge is associative and commutative).
  [[nodiscard]] const NetworkStats& net_stats() const;
  [[nodiscard]] const TraceLog& trace() const { return trace_; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_; }
  [[nodiscard]] std::size_t shards() const { return shards_; }
  [[nodiscard]] ShardRunStats shard_stats() const;
  // Dispatch-loop causal state (obs/causal.h); only advanced while the
  // trace is enabled AND shards == 1 (monitors — the only consumer — run
  // single-shard). OnlineMonitor::attach binds it so mirrored violations
  // carry the lineage of the event that tripped them.
  [[nodiscard]] const obs::CausalSession& causal_session() const { return causal_obs_; }

 private:
  class NodeEnv;

  // Memoized byte-meter state: the per-sender frame envelope is constant,
  // and the codec resolution is per distinct message type; only the body is
  // (counting-)encoded per broadcast, so metered sizes stay exact. A null
  // codec entry memoizes "type not registered" (meters to 0). One cache per
  // shard (concurrent lookups).
  struct MeterCacheEntry {
    std::string type;
    const net::BodyCodec* codec = nullptr;
  };

  // Per-shard engine state: its own scheduler, network facade, trace sink
  // and byte-meter cache; everything a worker touches without locks. Other
  // workers read the window-loop fields only across the window barrier.
  struct ShardState {
    Scheduler sched;
    TraceSink sink;
    std::unique_ptr<Network> net;
    std::vector<MeterCacheEntry> meter_cache;
    std::size_t meter_last = SIZE_MAX;  // fast path: same-type broadcast runs
    // outbox[p][d]: groups for shard d pushed during a window of parity p.
    // Shard d drains them at the start of the next window, while this shard
    // pushes into the other parity.
    std::vector<std::vector<Network::CrossGroup>> outbox[2];
    std::size_t parity = 0;         // outbox set the current window pushes into
    SimTime out_min = kSimTimeMax;  // earliest arrival pushed this window
    SimTime next = kSimTimeMax;     // own queue's earliest event after the window
    bool failed = false;            // a process threw during this window
    std::uint64_t cross_groups = 0;  // groups drained into this shard
    std::uint64_t lookahead_violations = 0;
    ShardRunStats::ShardTime time;
    explicit ShardState(TraceLog* log) : sink(log) {}
  };
  struct WindowLoop;  // system.cpp

  void deliver(std::size_t shard, ProcIndex to, const std::shared_ptr<const Message>& m);
  void run_windows(SimTime t_limit, std::uint64_t max_events);
  void next_window(WindowLoop& w) noexcept;
  void shard_loop(std::size_t s, WindowLoop& w, const std::function<void()>& arrive_and_wait);
  void merge_trace();
  [[nodiscard]] std::uint64_t events_executed() const;

  [[nodiscard]] const net::BodyCodec* meter_codec_of(ShardState& sh, const std::string& type);

  std::vector<Id> ids_;
  std::vector<std::optional<CrashPlan>> crashes_;
  double dying_copy_delivery_prob_;
  std::size_t shards_ = 1;
  SimTime lookahead_ = 1;
  // Per-process rows: each is read and advanced only during its owner's
  // dispatches, i.e. only by the shard that owns the process.
  std::vector<Rng> rngs_;
  std::vector<std::uint64_t> bcast_seq_;
  std::vector<obs::CausalSession> sessions_;
  obs::CausalSession causal_obs_;  // current-dispatch mirror for monitors
  std::vector<std::size_t> frame_overhead_by_sender_;
  TraceLog trace_{0};
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_timer_fires_ = nullptr;
  std::unique_ptr<TimingModel> timing_;
  std::vector<std::unique_ptr<ShardState>> shards_vec_;
  std::unique_ptr<exp::ShardPool> pool_;
  std::vector<TraceSink::Keyed> merge_buf_;
  std::uint64_t windows_ = 0;
  mutable NetworkStats merged_stats_;
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<std::unique_ptr<NodeEnv>> envs_;
  bool started_ = false;
};

}  // namespace hds
