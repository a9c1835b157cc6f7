// Observer-side notifications of failure-detector output changes.
//
// Every FD implementation and reduction already detects when its exported
// variable actually changes (that is what keeps the Trajectory records and
// the change counters honest). An FdOutputListener taps exactly those
// sites: it fires once per real change, with the local timestamp and the
// new value, and never on a re-assignment of an equal value.
//
// This is an observer mechanism in the paper's sense — like labels and
// trajectories, it is a formalization device of the environment, invisible
// to the algorithms. Listeners must not feed anything back into the run.
// The online property monitors (obs/monitor.h) are the intended consumer.
//
// Callback context: on the simulator, calls happen inside the event loop
// (single-threaded); on NetSystem, inside the process's own node
// thread — a listener shared across processes must synchronize internally.
#pragma once

#include "common/multiset.h"
#include "common/types.h"
#include "fd/interfaces.h"

namespace hds {

class FdOutputListener {
 public:
  virtual ~FdOutputListener() = default;

  // ◇HP̄: h_trusted changed (OHPPolling, end of a polling round).
  virtual void on_trusted_change(SimTime /*at*/, const Multiset<Id>& /*h_trusted*/) {}
  // HΩ: the (leader, multiplicity) pair changed (OHPPolling, HOmegaHeartbeat).
  virtual void on_homega_change(SimTime /*at*/, const HOmegaOut& /*out*/) {}
  // HΣ: a label or quorum was added (HSigmaCore hosts, Σ→HΣ transformers).
  virtual void on_hsigma_change(SimTime /*at*/, const HSigmaSnapshot& /*snap*/) {}
  // Σ: trusted changed (HΣ→Σ reduction).
  virtual void on_sigma_change(SimTime /*at*/, const Multiset<Id>& /*trusted*/) {}
};

// Fans one change-site out to two listeners (either may be null), first `a`
// then `b` — how the monitor and the streaming QoS estimator share the
// single listener slot an FD implementation exposes. Composes: tee of tees
// for wider fan-out.
class FdOutputTee final : public FdOutputListener {
 public:
  FdOutputTee(FdOutputListener* a, FdOutputListener* b) : a_(a), b_(b) {}

  void on_trusted_change(SimTime at, const Multiset<Id>& m) override {
    if (a_ != nullptr) a_->on_trusted_change(at, m);
    if (b_ != nullptr) b_->on_trusted_change(at, m);
  }
  void on_homega_change(SimTime at, const HOmegaOut& out) override {
    if (a_ != nullptr) a_->on_homega_change(at, out);
    if (b_ != nullptr) b_->on_homega_change(at, out);
  }
  void on_hsigma_change(SimTime at, const HSigmaSnapshot& snap) override {
    if (a_ != nullptr) a_->on_hsigma_change(at, snap);
    if (b_ != nullptr) b_->on_hsigma_change(at, snap);
  }
  void on_sigma_change(SimTime at, const Multiset<Id>& m) override {
    if (a_ != nullptr) a_->on_sigma_change(at, m);
    if (b_ != nullptr) b_->on_sigma_change(at, m);
  }

 private:
  FdOutputListener* a_;
  FdOutputListener* b_;
};

}  // namespace hds
