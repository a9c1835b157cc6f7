// Link-level fault-interposition seam shared by both substrates.
//
// A LinkInterposer sees every per-destination copy at the moment it is put
// on the wire and returns a verdict: drop it, inflate its latency, or
// inject trailing duplicate copies. The simulator's Network and
// net::NetSystem's send path both consult an installed interposer; when
// none is installed the cost is a single null check, so runs without a
// fault plan pay nothing. The chaos subsystem (src/chaos/) is the intended
// implementation — this header exists so neither engine depends on it.
//
// Call context: the simulator calls from the event loop (single-threaded);
// NetSystem calls from whichever of its threads is sending (node thread
// for broadcasts; recv and ARQ threads for retransmissions and acks).
// Implementations must synchronize internally and be deterministic as a
// function of (seed, call order) so failing runs replay exactly.
#pragma once

#include <cstddef>
#include <string>

#include "common/types.h"

namespace hds {

struct CopyVerdict {
  bool drop = false;             // the copy never reaches the destination
  SimTime extra_delay = 0;       // added to the substrate's delivery latency
  std::size_t duplicates = 0;    // extra copies injected behind the original
  SimTime duplicate_spread = 0;  // each duplicate trails the original by [1, spread]
};

class LinkInterposer {
 public:
  virtual ~LinkInterposer() = default;

  // Fate of one copy of a `type` message sent at `now` on link from -> to.
  virtual CopyVerdict on_copy(SimTime now, ProcIndex from, ProcIndex to,
                              const std::string& type) = 0;
};

}  // namespace hds
