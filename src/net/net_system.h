// UDP cluster substrate: runs ONE local process of an n-process deployment
// over real sockets, with the same Env contract as sim::System (Env time
// units are milliseconds here). Peers are other OS processes (or other
// NetSystem instances in the same process — each owns its own socket), so a
// cluster of hds_node daemons and an in-process test harness use identical
// code; the in-process form is how the algorithms run under real
// concurrency.
//
// Concurrency discipline: the local process's state is touched only by its
// node thread; query() posts a closure into the node mailbox and waits.
// Three internal threads (four with reliability on):
//   - node:   time-ordered mailbox dispatch (handlers, timers, queries);
//   - recv:   recvfrom -> split_batch -> decode_frame -> mailbox;
//   - sender: per-destination batching (flush on size or time budget),
//             plus interposer-injected delays and duplicates;
//   - rel:    ARQ retransmission/ack timer (only when reliability is on).
//
// Startup barrier: UDP gives no retransmission and several stacks (Fig. 8)
// tolerate zero message loss, so a datagram fired at a peer whose socket is
// not yet bound would wedge the run. await_peers() exchanges HELLO /
// HELLO-ACK control frames until every peer has been heard from; call it
// after construction (the socket binds and the recv thread starts in the
// constructor) and before start().
//
// Reliability: cfg.reliability.enabled routes every data frame through a
// per-link ARQ channel (net/reliable.h) — sequence numbers, piggybacked
// cum+selective acks, RTT-estimated retransmission — which un-wedges
// Fig. 8's non-retransmitting quorum waits under datagram loss. The fault
// interposer is consulted per TRANSMISSION ATTEMPT (retransmits included),
// i.e. loss injection sits below the ARQ exactly like a lossy wire. Off by
// default, with frames byte-identical to plain v1 when off.
//
// Crash-restart: cfg.epoch is this process incarnation's number (0 for a
// first boot). A respawned node (epoch > 0) runs the barrier with REJOIN
// probes instead of HELLO — peers answer REJOIN-ACK mid-run, flush the
// restarted link's ARQ state, and re-send whatever the dead incarnation
// never acked.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/link_fault.h"
#include "common/rng.h"
#include "common/types.h"
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
  // Send batching: frames to one destination coalesce into one datagram,
  // flushed when the batch reaches about one MTU or has waited
  // flush_interval_ms. batching=false sends one frame per datagram.
  bool batching = true;
  SimTime flush_interval_ms = 1;
  obs::MetricsRegistry* metrics = nullptr;
  // ARQ layer (net/reliable.h). Disabled by default: frames stay
  // byte-identical to plain v1 and no rel thread is spawned.
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

class NetSystem {
 public:
  // Binds the socket (throws std::system_error on failure) and starts the
  // recv + sender threads. peers[self].ep.port == 0 binds an ephemeral
  // port, reported by local_port() — the in-process test pattern.
  explicit NetSystem(NetConfig cfg);
  ~NetSystem();

  NetSystem(const NetSystem&) = delete;
  NetSystem& operator=(const NetSystem&) = delete;

  [[nodiscard]] std::uint16_t local_port() const;
  [[nodiscard]] std::size_t n() const { return peers_.size(); }
  [[nodiscard]] ProcIndex self() const { return self_; }
  [[nodiscard]] Id id_of(ProcIndex i) const { return peers_.at(i).id; }

  // Lets in-process harnesses wire ephemeral ports together before the
  // barrier: rebinds peer i's destination endpoint. Only before start().
  void set_peer_endpoint(ProcIndex i, const UdpEndpoint& ep);

  void set_process(std::unique_ptr<Process> p);

  // Installs a fault-plan interposer consulted on every outgoing copy
  // (from = self index). Install before start(); must be thread-safe and
  // outlive the system. Verdict times are milliseconds.
  void set_interposer(LinkInterposer* li);

  // Blocks until a control frame has been received from every peer, sending
  // HELLO probes the whole time. Returns false on timeout.
  bool await_peers(std::chrono::milliseconds timeout);

  // Starts the node thread and delivers on_start. Messages received before
  // start() queue up and are dispatched after on_start.
  void start();

  // Crashes the LOCAL process (remote crashes are remote kill -9).
  void crash();
  [[nodiscard]] bool is_crashed() const;

  // Runs `fn` on the node thread against the local process and returns the
  // result. Blocks until executed; throws if the local process crashed.
  template <typename F>
  auto query(F&& fn) -> decltype(fn(std::declval<Process&>())) {
    using R = decltype(fn(std::declval<Process&>()));
    std::promise<R> prom;
    auto fut = prom.get_future();
    post_task([&prom, fn = std::forward<F>(fn)](Process& p) mutable {
      if constexpr (std::is_void_v<R>) {
        fn(p);
        prom.set_value();
      } else {
        prom.set_value(fn(p));
      }
    });
    return fut.get();
  }

  // Polls `pred` on the caller thread until it holds or timeout.
  bool wait_for(const std::function<bool()>& pred, std::chrono::milliseconds timeout,
                std::chrono::milliseconds poll = std::chrono::milliseconds(5));

  [[nodiscard]] NetNetworkStats net_stats();

  // ARQ counters; all zero when reliability is off.
  [[nodiscard]] RelStats rel_stats();
  [[nodiscard]] bool reliable() const { return rel_ != nullptr; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_num_; }

  // ---- causal tracing / telemetry surface (all thread-safe) ----
  [[nodiscard]] bool trace_enabled() const { return trace_.enabled(); }
  // Events recorded since the caller's cursor (start at 0), for incremental
  // telemetry streaming; advances the cursor.
  std::vector<TraceEvent> drain_trace(std::uint64_t& cursor);
  [[nodiscard]] std::vector<TraceEvent> trace_events();
  [[nodiscard]] std::uint64_t trace_dropped();
  // Wall-clock instant (µs since the Unix epoch) at which this node's local
  // millisecond clock (now_ms() == 0, the trace timestamps) started. The
  // cluster launcher uses it to rebase per-node traces onto one timeline.
  [[nodiscard]] std::int64_t epoch_wall_us() const { return epoch_wall_us_; }

  // Stops and joins all three threads; closes the socket. Idempotent.
  void stop();

 private:
  class Node;

  // One frame awaiting its send instant (interposer extra_delay /
  // duplicate trail); heap-ordered by (at, seq).
  struct SendItem {
    std::chrono::steady_clock::time_point at;
    std::uint64_t seq = 0;
    ProcIndex to = 0;
    std::vector<std::uint8_t> frame;
  };

  void post_task(std::function<void(Process&)> task);
  void note_delivered();
  // Causal hooks, called on the node thread only (the only dispatch
  // context): see causal_ below.
  void note_start();
  void note_timer_fire(std::uint64_t armed_parent);
  void note_causal_delivery(const Message& m);
  void broadcast_from_self(const Message& m);
  void flush_batch(ProcIndex to);
  void enqueue_send(std::chrono::steady_clock::time_point at, ProcIndex to,
                    std::vector<std::uint8_t> frame);
  void send_control(std::uint8_t tag, ProcIndex to);
  void send_control(std::uint8_t tag, ProcIndex to, const std::vector<std::uint8_t>& body);
  void recv_loop();
  void sender_loop();
  void rel_loop();
  // Runs each ARQ output (retransmission / standalone ack) through the
  // interposer and the send queue; callable from any thread.
  void dispatch_rel_sends(std::vector<RelSend> sends);
  void handle_frame(const std::uint8_t* data, std::size_t len);
  [[nodiscard]] SimTime now_ms() const;

  ProcIndex self_;
  // ids are immutable after construction; the endpoints may be rewired by
  // set_peer_endpoint() while the recv thread is already acking, so
  // endpoint reads on send paths go through ep_mu_.
  std::vector<NetPeer> peers_;
  mutable std::mutex ep_mu_;
  bool batching_;
  SimTime flush_interval_ms_;
  std::chrono::steady_clock::time_point epoch_;
  std::int64_t epoch_wall_us_ = 0;

  // Causal state is written only by the node thread (broadcast, delivery,
  // timer and start dispatch all happen there); the trace ring is written by
  // the node thread and drained by telemetry callers under trace_mu_.
  obs::CausalSession causal_;
  mutable std::mutex trace_mu_;
  TraceLog trace_{0};

  UdpSocket sock_;

  std::mutex rng_mu_;
  Rng rng_;

  LinkInterposer* interposer_ = nullptr;

  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Counter* m_broadcasts_ = nullptr;
  obs::Counter* m_copies_delivered_ = nullptr;
  obs::Counter* m_copies_lost_link_ = nullptr;
  obs::Counter* m_copies_duplicated_ = nullptr;
  obs::Counter* m_bytes_sent_ = nullptr;
  obs::Counter* m_bytes_received_ = nullptr;
  obs::Counter* m_packets_sent_ = nullptr;
  obs::Counter* m_packets_received_ = nullptr;
  obs::Counter* m_decode_errors_ = nullptr;
  obs::Histogram* m_batch_frames_ = nullptr;  // frames per sent datagram
  obs::Histogram* m_batch_bytes_ = nullptr;   // payload bytes per sent datagram

  std::mutex stats_mu_;
  NetNetworkStats stats_;

  // Peer barrier state (recv thread writes, await_peers reads).
  std::mutex peers_mu_;
  std::condition_variable peers_cv_;
  std::vector<bool> heard_from_;

  // Sender state: a time-ordered frame queue plus per-destination pending
  // batches with flush deadlines.
  struct PendingBatch;
  std::mutex send_mu_;
  std::condition_variable send_cv_;
  std::vector<std::unique_ptr<PendingBatch>> pending_;  // one slot per peer
  std::uint64_t send_seq_ = 0;
  std::vector<SendItem> send_queue_;  // heap ordered by (at, seq)
  std::atomic<bool> stop_flag_{false};

  // ARQ state; null when reliability is off (the send/recv paths then skip
  // every rel branch, keeping the off configuration byte-identical).
  std::unique_ptr<ReliableChannel> rel_;
  std::uint64_t epoch_num_ = 0;
  std::mutex rel_wake_mu_;
  std::condition_variable rel_cv_;

  std::unique_ptr<Node> node_;
  std::thread recv_thread_;
  std::thread send_thread_;
  std::thread rel_thread_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace hds::net
