#include "consensus/flood_sync.h"

#include <algorithm>

namespace hds {

namespace {

// Opens a lock-step step: broadcast the estimate, then arm the unit step
// timer that folds the step.
void begin_step(Env& env, Value est) {
  env.broadcast(make_message(kFloodEstType, FloodEstMsg{est}));
  env.set_timer(1);
}

}  // namespace

void FloodMinSync::on_start(Env& env) { begin_step(env, est_); }

void FloodMinSync::on_message(Env&, const Message& m) {
  if (decision_.decided) return;
  if (const auto* b = m.as<FloodEstMsg>()) est_ = std::min(est_, b->est);
}

void FloodMinSync::on_timer(Env& env, TimerId) {
  // Steps 0..t flood; at the end of step t, t+1 exchanges have happened.
  if (step_ >= t_) {
    decision_ = DecisionRecord{true, env.local_now(), est_, static_cast<Round>(step_ + 1)};
    return;
  }
  ++step_;
  begin_step(env, est_);
}

void ApStabilitySync::on_start(Env& env) { begin_step(env, est_); }

void ApStabilitySync::on_message(Env&, const Message& m) {
  if (decision_.decided) return;
  if (const auto* b = m.as<FloodEstMsg>()) {
    est_ = std::min(est_, b->est);
    ++count_;
  } else if (const auto* d = m.as<FloodDecideMsg>()) {
    // Adopt a conveyed decision immediately (and relay it next step).
    est_ = d->v;
    pending_decision_ = d->v;
  }
}

void ApStabilitySync::on_timer(Env& env, TimerId) {
  if (!pending_decision_) {
    // Early-stopping rule: two consecutive steps with the same alive-sender
    // count mean no crash interfered — the flood converged.
    if (last_count_ && *last_count_ == count_) pending_decision_ = est_;
    last_count_ = count_;
  }
  count_ = 0;
  if (pending_decision_) {
    decision_ = DecisionRecord{true, env.local_now(), *pending_decision_,
                               static_cast<Round>(step_ + 1)};
    steps_to_decide_ = step_ + 1;
    // One relay step: convey the decision, then go quiet.
    env.broadcast(make_message(kFloodDecideType, FloodDecideMsg{*pending_decision_}));
    return;
  }
  ++step_;
  begin_step(env, est_);
}

}  // namespace hds
