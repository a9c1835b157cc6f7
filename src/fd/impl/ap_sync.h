// AP (Bonnet & Raynal's anonymous perfect detector) in an anonymous
// synchronous system: each step every process broadcasts an anonymous
// ALIVE mark and sets anap to the number of marks received in the step.
// The count never undershoots the number of processes alive from that point
// on (safety) and equals |Correct| once the last crash is past (liveness).
//
// AP is the source detector of the paper's Lemma 2 (AP -> ◇HP̄) and
// Lemma 3 (AP -> HΣ) reductions, which together with the consensus
// algorithm of Fig. 9 yield anonymous synchronous consensus for any number
// of crashes — the full-stack integration this library reproduces.
//
// Until the first step completes, anap is "infinity" (SIZE_MAX): AP must
// over- rather than under-estimate, and an anonymous process does not know n.
//
// APComponent is the lock-step host, with the same contract as
// HSigmaComponent: a step is a broadcast followed by a step timer of
// `step_len` >= the known link bound. The count is formed at the end of a
// step, when a sender that crashed while broadcasting in it is already dead,
// so the value is stamped at the tick the step timer fires (AP safety is
// against the aliveness from the moment of the estimate on).
#pragma once

#include <cstddef>
#include <limits>

#include "common/trajectory.h"
#include "common/types.h"
#include "fd/interfaces.h"
#include "sim/process.h"

namespace hds {

struct ApAliveMsg {
  friend bool operator==(const ApAliveMsg&, const ApAliveMsg&) = default;
};

class APCore {
 public:
  void on_step_count(SimTime t, std::size_t count);

  [[nodiscard]] std::size_t anap() const { return anap_; }
  [[nodiscard]] const Trajectory<std::size_t>& trace() const { return trace_; }

 private:
  std::size_t anap_ = std::numeric_limits<std::size_t>::max();
  Trajectory<std::size_t> trace_;
};

class APComponent final : public Process, public APHandle {
 public:
  static constexpr const char* kMsgType = "AP_ALIVE";

  explicit APComponent(SimTime step_len);

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

  [[nodiscard]] std::size_t anap() const override { return core_.anap(); }
  [[nodiscard]] const APCore& core() const { return core_; }

 private:
  void begin_step(Env& env);

  SimTime step_len_;
  TimerId step_timer_ = 0;
  std::size_t pending_ = 0;
  APCore core_;
};

}  // namespace hds
