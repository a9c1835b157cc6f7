// Figure 7: implementation of HΣ in HSS[...] — homonymous synchronous
// system, unknown membership.
//
// Each synchronous step every process broadcasts IDENT(id(p)) and gathers
// the multiset mset of identifiers received in the step; the pair
// (mset, mset) joins h_quora and mset joins h_labels (a quorum is labelled
// by its own identifier multiset).
//
// HSigmaComponent runs the protocol on System (or NetSystem): a step is a
// broadcast followed by a step timer of fixed length, and the synchronous
// model's known link bound is what makes one step collect exactly the
// IDENTs broadcast in it. With BoundedTiming(1) and a step length of 1 this
// is the paper's lock-step round; the Fig. 9 synchronous stack runs it with
// a longer step over the same engine.
#pragma once

#include "common/multiset.h"
#include "common/trajectory.h"
#include "common/types.h"
#include "fd/interfaces.h"
#include "fd/output_hooks.h"
#include "obs/metrics.h"
#include "sim/process.h"

namespace hds {

struct IdentMsg {
  Id id;
  friend bool operator==(const IdentMsg&, const IdentMsg&) = default;
};

// Protocol state, apart from the step clock that drives it.
class HSigmaCore {
 public:
  // Folds in the identifier multiset observed during one step.
  void on_step_idents(SimTime t, const Multiset<Id>& mset);

  [[nodiscard]] HSigmaSnapshot snapshot() const { return state_; }
  [[nodiscard]] const Trajectory<HSigmaSnapshot>& trace() const { return trace_; }

  // Quorum-size distribution (one observation per newly certified quorum)
  // and total quora stored. Null detaches.
  void attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels = {});

  // Fires whenever a step adds a label or a quorum (h_quora/h_labels are
  // monotone, so "added" is the only change). Null detaches.
  void set_output_listener(FdOutputListener* l) { listener_ = l; }

 private:
  HSigmaSnapshot state_;
  Trajectory<HSigmaSnapshot> trace_;
  FdOutputListener* listener_ = nullptr;
  obs::Counter* m_quora_stored_ = nullptr;
  obs::Histogram* m_quorum_size_ = nullptr;
};

class HSigmaComponent final : public Process, public HSigmaHandle {
 public:
  static constexpr const char* kMsgType = "IDENT";

  // `step_len` must be at least the known link-latency bound of the
  // synchronous system (e.g. BoundedTiming(delta) with step_len = delta):
  // an IDENT broadcast when a step begins arrives by the tick its step timer
  // fires, and deliveries run before timers at the same tick (sim/lane.h).
  // The fold of step s is stamped at the tick that timer fires.
  explicit HSigmaComponent(SimTime step_len);

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

  [[nodiscard]] HSigmaSnapshot snapshot() const override { return core_.snapshot(); }
  [[nodiscard]] const HSigmaCore& core() const { return core_; }
  void attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels = {}) {
    core_.attach_metrics(reg, labels);
  }
  void set_output_listener(FdOutputListener* l) { core_.set_output_listener(l); }

 private:
  void begin_step(Env& env);

  SimTime step_len_;
  TimerId step_timer_ = 0;
  Multiset<Id> pending_;
  HSigmaCore core_;
};

}  // namespace hds
