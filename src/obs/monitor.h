// Online property monitors over failure-detector output streams.
//
// An OnlineMonitor subscribes to FD output changes *during* a run (through
// the FdOutputListener hooks every implementation and reduction exposes)
// and classifies each change against the run's ground truth:
//
//   violations — the observed behaviour is incompatible with the detector
//   class once the run should have stabilized:
//     suspect-correct      ◇HP̄ output misses a correct instance after
//                          watch_from (a correct process is suspected);
//     leader-flap          HΩ output changed after watch_from;
//     quorum-disjoint      two realized HΣ quora have empty intersection
//                          (safety — checked from t=0, never gated);
//     sigma-trust-crashed  Σ trusts a crashed instance after watch_from.
//
//   warnings — suspicious but not property-violating:
//     late-change    ◇HP̄ output changed after watch_from but still covers
//                    every correct instance (churn without wrong suspicion);
//     dead-leader    HΩ elected an identifier carried by no correct process
//                    (gated by watch_from: pre-stabilization it is expected);
//     quorum-margin  two realized quora intersect in at most
//                    quorum_margin_warn instances (one crash from disjoint).
//
// watch_from is the caller's stabilization budget (e.g. GST plus slack): a
// clean run whose detectors settle before it produces no events at all.
// Events are mirrored into a TraceLog (kMonitorWarn / kMonitorViolation)
// and counted in a MetricsRegistry when configured.
//
// The monitor is observer machinery: it never feeds anything back into the
// run. It is internally synchronized, so the per-process listeners may be
// driven from net::NetSystem node threads as well as from the simulator
// loop.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/multiset.h"
#include "common/types.h"
#include "fd/ground_truth.h"
#include "fd/output_hooks.h"
#include "fd/run_observer.h"
#include "obs/causal.h"
#include "obs/metrics.h"
#include "sim/tracelog.h"

namespace hds::obs {

struct MonitorEvent {
  enum class Severity : std::uint8_t { kWarning, kViolation };

  SimTime at = 0;
  Severity severity = Severity::kWarning;
  ProcIndex proc = 0;
  std::string rule;    // e.g. "suspect-correct"
  std::string detail;  // human-readable specifics

  friend bool operator==(const MonitorEvent&, const MonitorEvent&) = default;
};

struct MonitorConfig {
  GroundTruth gt;
  // Changes at or after this instant are judged; before it the detectors
  // are still allowed to converge. Safety rules (quorum intersection)
  // ignore it.
  SimTime watch_from = 0;
  // Intersection margin at or below which a quorum pair warns.
  std::size_t quorum_margin_warn = 1;
  TraceLog* trace = nullptr;          // optional mirror; null disables
  MetricsRegistry* metrics = nullptr;  // optional counters; null disables
  // Optional causal session of the dispatch loop driving the listeners.
  // When set, mirrored monitor events carry the lineage id of the event
  // being dispatched when the rule fired, so causal_chain() can explain a
  // violation by its message ancestry. Single-threaded dispatch only (the
  // simulator loop); leave null when listeners run on NetSystem threads.
  const CausalSession* causal = nullptr;
};

class OnlineMonitor final : public RunObserver {
 public:
  explicit OnlineMonitor(MonitorConfig cfg);

  // Stable per-process listener to hand to set_output_listener(); valid for
  // the monitor's lifetime. i must be < gt.n().
  FdOutputListener* listener(ProcIndex i) override;

  // Late-binds MonitorConfig::causal to the system's dispatch session when
  // its trace is on: the monitor is typically constructed before the System
  // it observes.
  void attach(System& sys) override;

  [[nodiscard]] std::vector<MonitorEvent> events() const;
  [[nodiscard]] std::size_t violation_count() const;
  [[nodiscard]] std::size_t warning_count() const;
  [[nodiscard]] std::map<std::string, std::size_t> counts_by_rule() const;
  // Events discarded once the retention cap was hit (counters keep going).
  [[nodiscard]] std::uint64_t dropped() const;

 private:
  // One proxy per process: tags the shared monitor with the proc index.
  struct ProcListener final : FdOutputListener {
    OnlineMonitor* owner = nullptr;
    ProcIndex proc = 0;

    void on_trusted_change(SimTime at, const Multiset<Id>& m) override {
      owner->trusted_changed(proc, at, m);
    }
    void on_homega_change(SimTime at, const HOmegaOut& out) override {
      owner->homega_changed(proc, at, out);
    }
    void on_hsigma_change(SimTime at, const HSigmaSnapshot& snap) override {
      owner->hsigma_changed(proc, at, snap);
    }
    void on_sigma_change(SimTime at, const Multiset<Id>& m) override {
      owner->sigma_changed(proc, at, m);
    }
  };

  void trusted_changed(ProcIndex p, SimTime at, const Multiset<Id>& m);
  void homega_changed(ProcIndex p, SimTime at, const HOmegaOut& out);
  void hsigma_changed(ProcIndex p, SimTime at, const HSigmaSnapshot& snap);
  void sigma_changed(ProcIndex p, SimTime at, const Multiset<Id>& m);

  // mu_ must be held.
  void emit(SimTime at, MonitorEvent::Severity sev, ProcIndex p, const char* rule,
            std::string detail);

  static constexpr std::size_t kMaxEvents = 10'000;

  MonitorConfig cfg_;
  Multiset<Id> correct_ids_;
  std::vector<std::unique_ptr<ProcListener>> proxies_;

  mutable std::mutex mu_;
  std::vector<MonitorEvent> events_;
  std::uint64_t dropped_ = 0;
  std::size_t violations_ = 0;
  std::size_t warnings_ = 0;
  std::set<Multiset<Id>> seen_quora_;  // distinct quora across all processes
};

}  // namespace hds::obs
