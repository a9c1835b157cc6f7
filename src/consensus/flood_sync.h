// Synchronous consensus baselines from the paper's related-work discussion
// (Section 1): the t+1-round bound for crash consensus versus the ~2t+1
// rounds paid when only the anonymous detector AP is available [Bonnet &
// Raynal, "The price of anonymity"].
//
//  - FloodMinSync: classic FloodMin. Every step broadcast the current
//    minimum estimate; decide after exactly t+1 steps (t known). Uses no
//    identifiers at all, so it runs unchanged across the whole homonymy
//    spectrum. Tolerates crash-during-broadcast: t+1 steps contain a clean
//    step, after which every alive estimate is equal.
//
//  - ApStabilitySync: t is NOT known. Estimates flood as above while the
//    process counts alive senders per step (the AP construction); it
//    decides once the count is stable across two consecutive steps — no
//    crash was observed, so the flooding converged — and relays a DECIDE
//    for one further step. One crash per step keeps the count strictly
//    decreasing for t steps, so the adversary forces t+2 steps where
//    FloodMin pays a fixed t+1 — and, measured the other way, failure-free
//    runs decide in 2 steps where FloodMin still pays t+1.
//
//    Caveat (documented, tested): with crash-during-broadcast partial
//    deliveries the early decision is only agreement-among-correct (a
//    process may decide on a count that looks stable to it alone, then
//    crash). Under full-delivery crashes it is uniform. This asymmetry is
//    the qualitative content of the "price of anonymity" discussion: with
//    counting instead of identities, early stopping costs either rounds or
//    uniformity.
//
// Both are lock-step processes: run them on System over BoundedTiming(1).
// A step is a broadcast followed by a unit step timer, so step s is sent at
// tick s and folded when the timer fires at tick s + 1, after every copy of
// it has arrived (deliveries run before timers at the same tick). A process
// crashing at tick s sends in step s and folds nothing from step s on.
#pragma once

#include <cstddef>
#include <optional>

#include "common/types.h"
#include "sim/process.h"
#include "spec/consensus_checkers.h"

namespace hds {

struct FloodEstMsg {
  Value est;
};

struct FloodDecideMsg {
  Value v;
};

inline constexpr const char* kFloodEstType = "FLOOD_EST";
inline constexpr const char* kFloodDecideType = "FLOOD_DEC";

class FloodMinSync final : public Process {
 public:
  FloodMinSync(Value proposal, std::size_t t) : est_(proposal), t_(t) {}

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

  [[nodiscard]] const DecisionRecord& decision() const { return decision_; }

 private:
  Value est_;
  std::size_t t_;
  std::size_t step_ = 0;
  DecisionRecord decision_;
};

class ApStabilitySync final : public Process {
 public:
  explicit ApStabilitySync(Value proposal) : est_(proposal) {}

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

  [[nodiscard]] const DecisionRecord& decision() const { return decision_; }
  // Steps the process actually ran before deciding (the measured "rounds").
  [[nodiscard]] std::size_t steps_to_decide() const { return steps_to_decide_; }

 private:
  Value est_;
  std::size_t step_ = 0;
  std::size_t count_ = 0;  // estimates received in the current step
  std::optional<std::size_t> last_count_;
  std::optional<Value> pending_decision_;  // by a conveyed DECIDE or the stability rule
  DecisionRecord decision_;
  std::size_t steps_to_decide_ = 0;
};

}  // namespace hds
