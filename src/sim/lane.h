// Canonical event lanes: the provenance-derived tiebreak that makes the
// simulator's total order reconstructible by any number of shards.
//
// The engine executes events in (time, lane) order. A lane is a 64-bit key
// computed from WHAT an event is (who caused it and that causer's own
// program order), never from WHEN it happened to be pushed into a queue —
// push order depends on the global execution interleaving, which a sharded
// run does not reproduce, while provenance is a pure function of the
// configuration. Two facts make the order well-defined and executable:
//
//  1. Lanes are unique per (time, queue): every class embeds a monotone
//     per-origin sequence number.
//  2. An event can only spawn same-tick work in a strictly larger lane
//     (deliveries < timers, and timer seqs grow per process; message delays
//     are >= 1 so deliveries always land in a later tick), so executing the
//     pending minimum never steps behind an event that already ran.
//
// Layout: [class:2][proc:26][seq:36].
#pragma once

#include <cstdint>

#include "common/types.h"

namespace hds {

using Lane = std::uint64_t;

enum class LaneClass : std::uint64_t {
  // Pre-run control events: process starts (seq 0) and planned-crash trace
  // markers (seq 1), keyed by process. Scheduled before execution begins.
  kControl = 0,
  // Broadcast fan-out delivery events, keyed by (sender, sender's own
  // broadcast count). A sender's dispatch order — and therefore its
  // broadcast count — is itself a pure function of the (time, lane) order,
  // so the key is interleaving-independent.
  kDeliver = 1,
  // Timer firings, keyed by (owner, owner's timer-arm count).
  kTimer = 2,
  // External schedulings through the legacy Scheduler::at/after surface
  // (tests, tools, the chaos injector's arm-time pushes), keyed by a
  // per-scheduler counter — same-tick FIFO, exactly the old behavior.
  kExternal = 3,
};

inline constexpr unsigned kLaneSeqBits = 36;
inline constexpr unsigned kLaneProcBits = 26;
inline constexpr std::uint64_t kLaneSeqMask = (std::uint64_t{1} << kLaneSeqBits) - 1;
inline constexpr std::uint64_t kLaneProcMask = (std::uint64_t{1} << kLaneProcBits) - 1;

[[nodiscard]] constexpr Lane make_lane(LaneClass c, std::uint64_t proc, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(c) << (kLaneProcBits + kLaneSeqBits)) |
         ((proc & kLaneProcMask) << kLaneSeqBits) | (seq & kLaneSeqMask);
}

}  // namespace hds
