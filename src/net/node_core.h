// One node of a UDP deployment without its I/O. NodeCore owns everything a
// node does except sockets, threads and clocks:
//   - the local Process, its timers, and the frames received before start();
//   - the v1 codec and per-destination send batching;
//   - the HELLO / REJOIN peer barrier and the incarnation epoch;
//   - fault-interposer verdicts (drops, delays, and duplicates whose trails
//     are drawn from the node's seeded Rng);
//   - causal stamping, the transport counters, and the per-link ARQ
//     (net/reliable.h).
//
// Like ReliableChannel it is substrate-passive: the caller passes `now` into
// every call, hands it each arrived datagram, calls advance() once
// next_deadline() is due, and transmits what take_datagrams() returns.
// net::NetSystem drives one over a UDP socket and the steady clock;
// tests/support/virtual_net.h drives several over a seeded virtual-time
// medium, which makes a lossy crash-restart run replay byte for byte.
//
// Batching: a destination's frames coalesce until the batch reaches
// kMaxBatchBytes or the tick (one millisecond of the node's clock) in which
// they were queued ends, so only a full batch leaves in that tick: the
// simulator delays every copy by at least one tick, and the paper's
// algorithms count in ticks. (OHPPolling's timeout starts at one tick and
// grows only on stale replies, so sub-tick round trips would leave its
// polling rate to host scheduling stalls.)
// batching = false sends every frame in its own datagram at once.
//
// Not thread-safe: the caller serializes every call.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/link_fault.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/codec.h"
#include "net/reliable.h"
#include "net/udp.h"
#include "obs/causal.h"
#include "obs/metrics.h"
#include "sim/process.h"
#include "sim/tracelog.h"

namespace hds::net {

struct NetPeer {
  Id id = 0;  // homonymous identifier of the process at this endpoint
  UdpEndpoint ep;
};

struct NetConfig {
  // Index of the local process within `peers` (the cluster-wide indexing
  // that plays the role ProcIndex plays on the other substrates).
  ProcIndex self = 0;
  std::vector<NetPeer> peers;
  std::uint64_t seed = 1;
  // Send batching: frames to one destination coalesce into one datagram
  // until it reaches about one MTU or the tick in which the frames were
  // queued ends. batching = false sends one frame per datagram at once.
  bool batching = true;
  obs::MetricsRegistry* metrics = nullptr;
  // ARQ layer (net/reliable.h). Disabled by default: frames stay
  // byte-identical to plain v1.
  RelConfig reliability;
  // Incarnation number of this process; > 0 switches the startup barrier to
  // REJOIN probes and makes peers flush this node's per-link ARQ state.
  std::uint64_t epoch = 0;
  // > 0 enables the structured event log + causal stamping: every local
  // broadcast mints a lineage id (node index folded into the high bits so
  // ids are cluster-unique) that crosses the socket via the v1 codec's
  // trace-context extension. 0 keeps frames byte-identical to plain v1.
  std::size_t trace_capacity = 0;
};

// Counter parity with the simulator's NetworkStats, plus the transport
// quantities that only exist once real datagrams are involved.
struct NetNetworkStats {
  std::uint64_t broadcasts = 0;         // local broadcast() invocations
  std::uint64_t copies_sent = 0;        // frames handed to the sender (incl. duplicates)
  std::uint64_t copies_delivered = 0;   // handler ran at the local process
  std::uint64_t copies_lost_link = 0;   // interposer drops + sendto failures
  std::uint64_t copies_duplicated = 0;  // extra copies injected by a fault plan
  std::uint64_t bytes_sent = 0;         // datagram payload bytes handed to the kernel
  std::uint64_t bytes_received = 0;     // datagram payload bytes received
  std::uint64_t packets_sent = 0;       // datagrams handed to the kernel
  std::uint64_t packets_received = 0;   // datagrams received
  std::uint64_t decode_errors = 0;      // malformed frames/batches rejected
  std::map<std::string, std::uint64_t> broadcasts_by_type;
};

// One datagram for the caller to transmit.
struct Datagram {
  ProcIndex to = 0;
  std::vector<std::uint8_t> bytes;
  std::size_t frames = 0;  // data frames inside; 0 for a barrier probe or answer
};

class NodeCore {
 public:
  // A batch is sealed once it reaches this many bytes: ≈ one MTU.
  static constexpr std::size_t kMaxBatchBytes = 1400;
  // Barrier probes to silent peers repeat at this period.
  static constexpr SimTime kProbeIntervalMs = 25;

  // `clock_zero` is the instant at which the local millisecond clock (Env's
  // local_now and the trace timestamps) reads 0. Peer endpoints are ignored.
  NodeCore(const NetConfig& cfg, RelTime clock_zero);
  ~NodeCore();

  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  [[nodiscard]] std::size_t n() const { return ids_.size(); }
  [[nodiscard]] ProcIndex self() const { return self_; }
  [[nodiscard]] Id id_of(ProcIndex i) const { return ids_.at(i); }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] bool reliable() const { return rel_ != nullptr; }

  void set_process(std::unique_ptr<Process> p);
  // Consulted on every outgoing data copy and ARQ output (from = self);
  // barrier probes and their answers bypass it. Verdict times are ms.
  void set_interposer(LinkInterposer* li) { interposer_ = li; }

  // Probes every silent peer (HELLO, or REJOIN with this incarnation's epoch
  // when epoch > 0) and keeps re-probing every kProbeIntervalMs until each
  // has been heard from. Any control frame from a peer counts as hearing it.
  void probe_peers(RelTime now);
  [[nodiscard]] bool peers_heard() const { return heard_count_ == ids_.size(); }

  // Delivers on_start, then the frames that arrived before start.
  void start(RelTime now);
  [[nodiscard]] bool started() const { return started_; }
  // Stops all dispatch for good; the transport (barrier answers, ARQ acks,
  // counters) keeps running, as with a process that hung.
  void crash();
  [[nodiscard]] bool crashed() const { return crashed_; }

  void on_datagram(const std::uint8_t* data, std::size_t len, RelTime now);
  // Runs what is due at `now`: the batches whose tick has ended, delayed
  // copies, ARQ retransmissions and acks, barrier re-probes, then timers (a
  // timer armed during this call waits for the next one).
  void advance(RelTime now);
  [[nodiscard]] std::optional<RelTime> next_deadline() const;

  // Runs `fn` against the local process (an external query: no causal or
  // dispatch accounting). Frames it sends are stamped at `now`.
  template <typename F>
  decltype(auto) query(RelTime now, F&& fn) {
    now_ = now;
    return fn(*proc_);
  }

  // Hands over the datagrams ready to send: full batches, barrier frames,
  // and the batches whose tick has ended.
  [[nodiscard]] std::vector<Datagram> take_datagrams();
  // Seals every pending batch, its tick ended or not (a clean shutdown).
  void flush();
  // Accounts one datagram from take_datagrams(): `ok` = it reached the wire.
  void sent(const Datagram& d, bool ok);

  [[nodiscard]] const NetNetworkStats& net_stats() const { return stats_; }
  // ARQ counters; all zero when reliability is off.
  [[nodiscard]] RelStats rel_stats() const { return rel_ ? rel_->stats() : RelStats{}; }
  [[nodiscard]] const TraceLog& trace() const { return trace_; }

 private:
  class CoreEnv;
  struct Timer {
    RelTime at;
    std::uint64_t seq = 0;
    TimerId id = 0;
    std::uint64_t armed_parent = 0;  // lineage of the dispatch that armed it
  };
  // A copy held back by an interposer delay or duplicate trail.
  struct Delayed {
    RelTime at;
    std::uint64_t seq = 0;
    ProcIndex to = 0;
    std::vector<std::uint8_t> frame;
  };

  [[nodiscard]] SimTime now_ms() const;
  // Bumps one transport counter and its registry mirror together.
  void count(std::uint64_t NetNetworkStats::*field, obs::Counter* mirror, std::uint64_t k = 1);
  void broadcast(const Message& m);
  TimerId arm_timer(SimTime delay);
  // Judges one copy with the interposer and queues what survives.
  void emit(ProcIndex to, const std::string& type, std::vector<std::uint8_t> frame);
  void emit_all(std::vector<RelSend> sends);
  void enqueue(RelTime at, ProcIndex to, std::vector<std::uint8_t> frame);
  void batch(ProcIndex to, const std::vector<std::uint8_t>& frame);
  void seal(ProcIndex to);
  // Seals the pending batches once the tick they were queued in has ended.
  void seal_ended();
  void send_control(std::uint8_t tag, ProcIndex to, const std::vector<std::uint8_t>& body = {});
  void on_frame(const std::uint8_t* data, std::size_t len);
  void on_control(std::uint8_t tag, ProcIndex from, const std::uint8_t* data, std::size_t len);
  void deliver(Message m);

  ProcIndex self_;
  std::vector<Id> ids_;
  bool batching_;
  std::uint64_t epoch_;
  RelTime clock_zero_;
  RelTime now_;  // instant of the call being served

  std::unique_ptr<Process> proc_;
  std::unique_ptr<CoreEnv> env_;
  bool started_ = false;
  bool crashed_ = false;
  std::vector<Message> early_;  // arrived before start()
  std::vector<Timer> timers_;   // min-heap on (at, seq)
  std::uint64_t timer_seq_ = 0;
  TimerId next_timer_ = 1;

  std::vector<bool> heard_;
  std::size_t heard_count_ = 0;
  std::optional<RelTime> probe_due_;

  LinkInterposer* interposer_ = nullptr;
  Rng rng_;
  std::vector<Delayed> delayed_;  // min-heap on (at, seq)
  std::uint64_t delayed_seq_ = 0;
  std::vector<BatchWriter> batches_;  // one per destination
  std::optional<RelTime> tick_end_;   // end of the oldest pending frame's tick
  std::vector<Datagram> ready_;
  std::unique_ptr<ReliableChannel> rel_;  // null when reliability is off

  obs::CausalSession causal_;
  TraceLog trace_;
  NetNetworkStats stats_;
  obs::Counter* m_broadcasts_ = nullptr;
  obs::Counter* m_copies_delivered_ = nullptr;
  obs::Counter* m_copies_lost_link_ = nullptr;
  obs::Counter* m_copies_duplicated_ = nullptr;
  obs::Counter* m_bytes_sent_ = nullptr;
  obs::Counter* m_bytes_received_ = nullptr;
  obs::Counter* m_packets_sent_ = nullptr;
  obs::Counter* m_packets_received_ = nullptr;
  obs::Counter* m_decode_errors_ = nullptr;
  obs::Histogram* m_batch_frames_ = nullptr;  // frames per sent data datagram
  obs::Histogram* m_batch_bytes_ = nullptr;   // payload bytes per sent data datagram
};

}  // namespace hds::net
