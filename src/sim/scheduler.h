// Discrete-event scheduler: the simulator's clock and event queue.
//
// Events run in (time, lane) order — the lane (sim/lane.h) is a provenance
// key derived from what caused the event, not from push order, so the total
// order is a pure function of the configuration seed AND reconstructible by
// a sharded run: each shard executes its own subsequence of the same global
// order. Legacy `at`/`after` callers get an external lane with a per-
// scheduler FIFO counter, which preserves the old same-tick scheduling-order
// semantics exactly.
//
// The queue is a bucketed calendar queue (see event_queue.h).
#pragma once

#include <cstdint>

#include "common/action.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/lane.h"

namespace hds {

class Scheduler {
 public:
  using Action = hds::Action;

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  // Lane of the event currently executing (valid during a step() dispatch).
  // Fan-out actions read this instead of capturing the lane: the capture
  // would push the closure past the Action small-buffer budget.
  [[nodiscard]] Lane current_lane() const { return current_lane_; }

  // Time of the earliest pending event. Precondition: !empty().
  [[nodiscard]] SimTime next_time() { return queue_.next_time(); }

  // Schedules `fn` at absolute time t (>= now) on an external FIFO lane.
  void at(SimTime t, Action fn);

  // Schedules `fn` at absolute time t (>= now) with an explicit canonical
  // lane. The engine (System/Network) uses this for every internal event.
  void at_lane(SimTime t, Lane lane, Action fn);

  // Schedules `fn` after `delay` time units.
  void after(SimTime delay, Action fn) { at(now_ + delay, std::move(fn)); }

  // Runs the next event; returns false if the queue is empty.
  bool step();

  // Runs every event with time <= t, then advances the clock to t.
  void run_until(SimTime t);

  // Runs every event with time < end; does NOT advance the clock past the
  // last executed event. Used by the sharded engine to execute one
  // conservative window [now, end) before a barrier.
  void run_before(SimTime end);

  // Advances the clock to t without running anything (t >= now). The
  // sharded engine uses this to align shard clocks at window barriers.
  void advance_to(SimTime t) {
    if (t > now_) now_ = t;
  }

  // Runs until the queue drains or `max_events` have executed.
  void run_all(std::uint64_t max_events = UINT64_MAX);

 private:
  CalendarQueue queue_;
  SimTime now_ = 0;
  Lane current_lane_ = 0;
  std::uint64_t ext_seq_ = 0;  // FIFO sequencer for external-lane events
  std::uint64_t executed_ = 0;
};

}  // namespace hds
