// Process-side API: what an algorithm running at one node may do and observe.
//
// A process initially knows only its own identifier (no membership, no n,
// no t — unless an algorithm is explicitly given them, as Fig. 8 is given n
// and t). Both the discrete-event simulator (sim::System) and the UDP
// substrate (net::NetSystem) implement Env and drive Process objects, so
// every algorithm in this library runs unchanged on either engine.
#pragma once

#include "common/types.h"
#include "sim/message.h"

namespace hds {

class Env {
 public:
  virtual ~Env() = default;

  // The identity of this process (shared with its homonyms).
  [[nodiscard]] virtual Id self_id() const = 0;

  // Sends one copy of m along the link to every process, itself included.
  virtual void broadcast(Message m) = 0;

  // Arms a fresh one-shot timer that fires after `delay` local time units.
  // Returns its id; ids are never reused within a process.
  virtual TimerId set_timer(SimTime delay) = 0;

  // Local clock, for timeout arithmetic only. In the partially synchronous
  // model processes may measure durations but know no global time.
  [[nodiscard]] virtual SimTime local_now() const = 0;
};

class Process {
 public:
  virtual ~Process() = default;
  virtual void on_start(Env&) {}
  virtual void on_message(Env&, const Message&) {}
  virtual void on_timer(Env&, TimerId) {}
};

}  // namespace hds
