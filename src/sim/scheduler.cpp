#include "sim/scheduler.h"

#include <stdexcept>

#include "obs/profiler.h"

namespace hds {

void Scheduler::at(SimTime t, Action fn) {
  at_lane(t, make_lane(LaneClass::kExternal, 0, ext_seq_++), std::move(fn));
}

void Scheduler::at_lane(SimTime t, Lane lane, Action fn) {
  if (t < now_) throw std::invalid_argument("Scheduler::at: time in the past");
  queue_.push(t, lane, std::move(fn));
}

bool Scheduler::step() {
  if (empty()) return false;
  HDS_PROF_SCOPE(obs::ProfSubsystem::kEventQueue);
  SimTime t = 0;
  Lane lane = 0;
  Action fn = queue_.pop(t, lane);
  now_ = t;
  current_lane_ = lane;
  ++executed_;
  fn();
  return true;
}

void Scheduler::run_until(SimTime t) {
  while (!empty() && next_time() <= t) step();
  if (now_ < t) now_ = t;
}

void Scheduler::run_before(SimTime end) {
  while (!empty() && next_time() < end) step();
}

void Scheduler::run_all(std::uint64_t max_events) {
  for (std::uint64_t i = 0; i < max_events && step(); ++i) {
  }
}

}  // namespace hds
