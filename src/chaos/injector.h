// FaultInjector — executes a FaultPlan against a substrate.
//
// The injector is a LinkInterposer (link clauses are applied per copy, on
// the simulator's Network or on net::NetSystem's send path via
// set_interposer) plus the simulator's crash clauses: fixed-instant crashes
// are scheduled on its clock, and event-triggered crashes ride the
// FdOutputListener hooks — as a RunObserver, the injector's listener
// observes real FD output changes and crashes a victim when a trigger clause
// matches. A harness lists it after the online monitor, so the monitor sees
// the change that caused a crash before the crash lands.
//
// Determinism: all randomness (loss, duplication, jitter) comes from one
// seeded Rng owned by the injector; on the simulator the whole run is
// therefore a pure function of (case config, plan, seed). Thread safety:
// every mutable member is guarded by one mutex, because on NetSystem
// on_copy arrives on several threads, and one injector may serve several
// in-process NetSystems. Crashes are injected outside the lock (lock order:
// injector mutex before any substrate lock, never the reverse).
#pragma once

#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "common/label.h"
#include "common/link_fault.h"
#include "common/rng.h"
#include "common/types.h"
#include "fd/run_observer.h"

namespace hds::chaos {

struct InjectorStats {
  std::uint64_t copies_dropped = 0;
  std::uint64_t copies_delayed = 0;
  std::uint64_t copies_duplicated = 0;
  std::uint64_t crashes_injected = 0;
  std::vector<std::string> crash_log;  // "rule victim=<idx> at=<t>"
};

class FaultInjector final : public LinkInterposer, public RunObserver {
 public:
  // `ids` is the run's identity vector (needed for label-class selectors and
  // trigger victim selection).
  FaultInjector(FaultPlan plan, std::vector<Id> ids, std::uint64_t seed);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // LinkInterposer: applies every active matching link clause to the copy.
  CopyVerdict on_copy(SimTime now, ProcIndex from, ProcIndex to,
                      const std::string& type) override;

  // Attaches to the simulator: installs the interposer, points the crash
  // clauses at `sys`, and schedules kCrashAt clauses. Call before start(); the
  // injector must outlive the system.
  void attach(System& sys) override;

  // The listener that evaluates the trigger clauses, shared by every
  // process; null when the plan has no trigger clauses.
  FdOutputListener* listener(ProcIndex i) override;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] InjectorStats stats() const;

 private:
  struct TriggerListener final : FdOutputListener {
    explicit TriggerListener(FaultInjector& i) : inj(i) {}
    void on_homega_change(SimTime at, const HOmegaOut& out) override {
      inj.on_homega_event(at, out);
    }
    void on_hsigma_change(SimTime at, const HSigmaSnapshot& snap) override {
      inj.on_hsigma_event(at, snap);
    }
    FaultInjector& inj;
  };

  void on_homega_event(SimTime at, const HOmegaOut& out);
  void on_hsigma_event(SimTime at, const HSigmaSnapshot& snap);
  // Lowest-index alive carrier of `id`; SIZE_MAX when none.
  ProcIndex lowest_alive_carrier(Id id) const;
  void crash_now(ProcIndex victim, const std::string& why, SimTime at);

  FaultPlan plan_;
  std::vector<Id> ids_;

  mutable std::mutex mu_;
  Rng rng_;
  InjectorStats stats_;
  std::vector<std::size_t> budget_used_;        // per clause
  std::vector<std::set<Id>> leaders_punished_;  // per clause (leader triggers)
  std::vector<std::set<Label>> quora_punished_;  // per clause (quorum triggers)
  TriggerListener trigger_{*this};

  // The simulator crash clauses act on (set by attach()); null until then.
  System* sys_ = nullptr;
};

}  // namespace hds::chaos
