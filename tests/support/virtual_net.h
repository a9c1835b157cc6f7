// Several net::NodeCores over a seeded virtual-time datagram medium: no
// socket, no thread, no wall clock. A datagram a core hands over reaches its
// destination slot after a seeded latency, or is lost when the slot is down
// at that instant (a killed process's port). Time jumps from event to event
// — a datagram arrival or a core's next deadline, a batch's tick end
// included — and each core's ready datagrams are collected after every
// event, as NetSystem's loop sends them before it blocks. A run is
// therefore a pure function of its seeds, and sent() lists every datagram
// with its virtual send instant, endpoints and bytes.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/link_fault.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/node_core.h"
#include "sim/process.h"

namespace hds::testing {

class VirtualNet {
 public:
  struct Sent {
    std::int64_t at_ns = 0;
    ProcIndex from = 0;
    ProcIndex to = 0;
    std::vector<std::uint8_t> bytes;
    friend bool operator==(const Sent&, const Sent&) = default;
  };

  // One-way latency of every datagram: kMinLatencyUs plus up to
  // kJitterUs, drawn from the medium's seed.
  static constexpr std::int64_t kMinLatencyUs = 50;
  static constexpr std::int64_t kJitterUs = 200;

  VirtualNet(std::size_t n, std::uint64_t seed) : slots_(n), rng_(seed) {}

  [[nodiscard]] const std::vector<Sent>& sent() const { return sent_; }

  // Boots slot i now, as hds_node boots: the core's clock starts, the
  // barrier starts probing, and start() is called once every peer
  // has been heard from.
  net::NodeCore& boot(ProcIndex i, const net::NetConfig& cfg, std::unique_ptr<Process> p,
                      LinkInterposer* interposer) {
    auto& slot = slots_.at(i);
    slot = std::make_unique<net::NodeCore>(cfg, now_);
    slot->set_process(std::move(p));
    slot->set_interposer(interposer);
    slot->probe_peers(now_);
    collect(i);
    return *slot;
  }

  // The slot goes down (kill -9, or the process exiting): its core is
  // destroyed and datagrams reaching the slot are lost until the next boot.
  void kill(ProcIndex i) { slots_.at(i).reset(); }

  // Runs every event up to and including `until_ms`.
  void run_until(SimTime until_ms) {
    const net::RelTime until = net::RelTime{} + std::chrono::milliseconds(until_ms);
    for (;;) {
      // The earliest event at or before `until`; an arrival wins a tie, then
      // the lowest slot.
      std::optional<ProcIndex> due;
      net::RelTime at = until;
      for (ProcIndex i = 0; i < slots_.size(); ++i) {
        const auto d = slots_[i] ? slots_[i]->next_deadline() : std::nullopt;
        if (d && *d <= at && !(due && *d == at)) {
          due = i;
          at = *d;
        }
      }
      if (!wire_.empty() && wire_.top().at <= at) {
        Arrival a = wire_.top();
        wire_.pop();
        now_ = std::max(now_, a.at);
        if (slots_[a.to]) {
          slots_[a.to]->on_datagram(a.bytes.data(), a.bytes.size(), now_);
          collect(a.to);
        }
      } else if (due) {
        now_ = std::max(now_, at);
        slots_[*due]->advance(now_);
        collect(*due);
      } else {
        now_ = std::max(now_, until);
        return;
      }
    }
  }

 private:
  struct Arrival {
    net::RelTime at;
    std::uint64_t seq = 0;
    ProcIndex to = 0;
    std::vector<std::uint8_t> bytes;
    bool operator>(const Arrival& o) const { return at != o.at ? at > o.at : seq > o.seq; }
  };

  // Starts a core whose barrier just completed, then puts its datagrams on
  // the wire.
  void collect(ProcIndex i) {
    net::NodeCore& c = *slots_[i];
    if (!c.started() && c.peers_heard()) c.start(now_);
    for (net::Datagram& d : c.take_datagrams()) {
      c.sent(d, true);
      const auto latency = std::chrono::microseconds(kMinLatencyUs + rng_.uniform(0, kJitterUs));
      const auto at = std::chrono::duration_cast<std::chrono::nanoseconds>(now_ - net::RelTime{});
      sent_.push_back(Sent{at.count(), i, d.to, d.bytes});
      wire_.push(Arrival{now_ + latency, seq_++, d.to, std::move(d.bytes)});
    }
  }

  std::vector<std::unique_ptr<net::NodeCore>> slots_;
  Rng rng_;
  net::RelTime now_{};
  std::uint64_t seq_ = 0;
  std::priority_queue<Arrival, std::vector<Arrival>, std::greater<>> wire_;
  std::vector<Sent> sent_;
};

}  // namespace hds::testing
