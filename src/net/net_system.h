// UDP cluster substrate: runs ONE local process of an n-process deployment
// over real sockets, with the same Env contract as sim::System (Env time
// units are milliseconds here). Peers are other OS processes (or other
// NetSystem instances in the same process — each owns its own socket), so a
// cluster of hds_node daemons and an in-process test harness use identical
// code; the in-process form is how the algorithms run under real
// concurrency.
//
// Everything a node does lives in a net::NodeCore (net/node_core.h); this
// class adds the socket, the steady clock, and ONE thread per node. From
// construction to stop() that thread waits on the socket and a wake-up fd
// until the core's next deadline, feeds the core what arrived or fell due,
// and sends what it returns. Every call into the core, from that thread or
// from a caller (start, crash, query, the counters), holds the node lock,
// so the local process's handlers never run concurrently.
//
// Startup barrier: UDP gives no retransmission and several stacks (Fig. 8)
// tolerate zero message loss, so a datagram fired at a peer whose socket is
// not yet bound would wedge the run. await_peers() has the core probe its
// silent peers (HELLO, or REJOIN for a restarted incarnation) until every
// peer has been heard from; call it after construction (the socket binds
// and the node thread starts in the constructor) and before start().
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

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/link_fault.h"
#include "common/types.h"
#include "net/node_core.h"
#include "net/reliable.h"
#include "net/udp.h"
#include "sim/process.h"
#include "sim/tracelog.h"

namespace hds::net {

class NetSystem {
 public:
  // Binds the socket (throws std::system_error on failure) and starts the
  // node thread. peers[self].ep.port == 0 binds an ephemeral port, reported
  // by local_port() — the in-process test pattern.
  explicit NetSystem(NetConfig cfg);
  ~NetSystem();

  NetSystem(const NetSystem&) = delete;
  NetSystem& operator=(const NetSystem&) = delete;

  [[nodiscard]] std::uint16_t local_port() const { return sock_.local_port(); }
  [[nodiscard]] std::size_t n() const { return core_.n(); }
  [[nodiscard]] ProcIndex self() const { return core_.self(); }
  [[nodiscard]] Id id_of(ProcIndex i) const { return core_.id_of(i); }

  // Lets in-process harnesses wire ephemeral ports together before the
  // barrier: rebinds peer i's destination endpoint. Only before start().
  void set_peer_endpoint(ProcIndex i, const UdpEndpoint& ep);

  void set_process(std::unique_ptr<Process> p);

  // Installs a fault-plan interposer consulted on every outgoing copy
  // (from = self index). Install before start(); must be thread-safe and
  // outlive the system. Verdict times are milliseconds.
  void set_interposer(LinkInterposer* li);

  // Blocks until a control frame has been received from every peer, probing
  // the silent ones the whole time. Returns false on timeout.
  bool await_peers(std::chrono::milliseconds timeout);

  // Delivers on_start, then the messages that arrived before start().
  void start();

  // Crashes the LOCAL process (remote crashes are remote kill -9): no
  // handler runs once this returns.
  void crash();
  [[nodiscard]] bool is_crashed() const;

  // Runs `fn` against the local process under the node lock and returns the
  // result. Waits for start(); throws if the local process crashed. `fn`
  // must not call back into this NetSystem: the lock is not recursive.
  template <typename F>
  auto query(F&& fn) -> decltype(fn(std::declval<Process&>())) {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [this] { return core_.started() || core_.crashed(); });
    if (core_.crashed()) throw std::runtime_error("NetSystem::query: node crashed");
    const WakeOnExit wake{*this};  // the query may have queued frames
    return core_.query(std::chrono::steady_clock::now(), std::forward<F>(fn));
  }

  // Polls `pred` on the caller thread until it holds or timeout.
  bool wait_for(const std::function<bool()>& pred, std::chrono::milliseconds timeout,
                std::chrono::milliseconds poll = std::chrono::milliseconds(5));

  [[nodiscard]] NetNetworkStats net_stats();

  // ARQ counters; all zero when reliability is off.
  [[nodiscard]] RelStats rel_stats();
  [[nodiscard]] bool reliable() const { return core_.reliable(); }
  [[nodiscard]] std::uint64_t epoch() const { return core_.epoch(); }

  // ---- causal tracing / telemetry surface (all thread-safe) ----
  [[nodiscard]] bool trace_enabled() const { return core_.trace().enabled(); }
  // Events recorded since the caller's cursor (start at 0), for incremental
  // telemetry streaming; advances the cursor.
  std::vector<TraceEvent> drain_trace(std::uint64_t& cursor);
  [[nodiscard]] std::vector<TraceEvent> trace_events();
  [[nodiscard]] std::uint64_t trace_dropped();
  // Wall-clock instant (µs since the Unix epoch) at which this node's local
  // millisecond clock (now_ms() == 0, the trace timestamps) started. The
  // cluster launcher uses it to rebase per-node traces onto one timeline.
  [[nodiscard]] std::int64_t epoch_wall_us() const { return epoch_wall_us_; }

  // Stops and joins the node thread, which first sends the batches still
  // pending; closes the socket. Idempotent.
  void stop();

 private:
  struct WakeOnExit {
    NetSystem& sys;
    ~WakeOnExit() { sys.wake(); }
  };

  void run();
  void wake();
  // Sends everything the core has ready; called with mu_ held.
  void transmit();

  std::int64_t epoch_wall_us_ = 0;
  UdpSocket sock_;
  int wake_fd_ = -1;

  // Guards everything below but the thread; cv_ signals the barrier
  // heard, start() and crash().
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<UdpEndpoint> endpoints_;
  NodeCore core_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace hds::net
