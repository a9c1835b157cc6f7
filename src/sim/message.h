// Transport-level message.
//
// Fidelity note: the paper's model says "the receiving process cannot
// identify the link through which a message was received", and several
// messages (e.g. PH0/PH1/PH2 in Fig. 8) deliberately carry no sender
// identity. The transport therefore exposes nothing about the sender to
// algorithms: whatever identity information an algorithm needs must be part
// of the body, exactly as in the pseudocode. `meta_sender` exists only for
// instrumentation (network statistics, trace debugging) and must never be
// read by protocol code.
#pragma once

#include <any>
#include <cstdint>
#include <string>

#include "common/types.h"

namespace hds {

struct Message {
  std::string type;  // e.g. "COORD", "POLLING"; used for routing and stats
  std::any body;     // algorithm-defined value struct

  // Instrumentation only (see header comment). Filled in by the network.
  ProcIndex meta_sender = 0;
  SimTime meta_sent_at = 0;
  // Estimated v1 wire-frame size of this message (net/codec.h); 0 when the
  // type has no registered codec. Filled in by the substrate so sim and net
  // report comparable byte costs. Instrumentation only, like meta_sender.
  // Deliberately excludes the optional causal-context frame extension so
  // byte accounting is identical with tracing on or off.
  std::size_t meta_wire_bytes = 0;

  // Causal-tracing context (obs/causal.h), stamped by the substrate at the
  // send site when tracing is enabled; all-zero otherwise. Crosses process
  // boundaries via the v1 codec's optional trace-context frame extension.
  // Instrumentation only, like meta_sender.
  std::uint64_t meta_causal_id = 0;      // lineage id minted for this send
  std::uint64_t meta_causal_parent = 0;  // lineage id of the causing event
  std::uint64_t meta_causal_clock = 0;   // Lamport clock at the send

  template <typename T>
  [[nodiscard]] const T* as() const {
    return std::any_cast<T>(&body);
  }
};

template <typename T>
Message make_message(std::string type, T body) {
  return Message{std::move(type), std::move(body), 0};
}

}  // namespace hds
