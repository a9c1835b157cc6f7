// Figure 8: consensus in HAS[t < n/2, HΩ] — homonymous asynchronous
// system, reliable links, a majority of correct processes, enriched with an
// HΩ failure detector. n and t are known; membership is not.
//
// The paper's blocking pseudocode is realized as an event-driven state
// machine: every `wait until` becomes a guard re-evaluated after each
// message delivery and on a periodic poll timer (the poll covers guard
// flips caused purely by the failure detector's output changing, which in
// the pseudocode would unblock a wait with no message arriving).
//
// Round structure (per the paper):
//   Leaders' Coordination Phase — processes that consider themselves
//     leaders (h_leader = own id) wait for COORD from h_multiplicity
//     homonyms and adopt the minimum estimate, so that all (eventual)
//     leaders push the same value;
//   Phase 0 — leaders broadcast the estimate, non-leaders adopt it;
//   Phase 1 — wait for n-t PH1; a value seen from a majority becomes est2,
//     otherwise est2 = bottom;
//   Phase 2 — wait for n-t PH2; unanimous non-bottom decides (via reliable
//     DECIDE rebroadcast), a mixed set adopts the value, all-bottom skips.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <vector>

#include "common/trajectory.h"
#include "consensus/messages.h"
#include "fd/interfaces.h"
#include "obs/metrics.h"
#include "sim/process.h"
#include "spec/consensus_checkers.h"

namespace hds {

struct MajorityConsensusConfig {
  std::size_t n = 0;      // known system size
  std::size_t t = 0;      // known bound on faulty processes, t < n/2
  Value proposal = 0;     // v_p
  SimTime guard_poll = 4; // period of the FD re-evaluation timer

  // The paper's footnote 5: knowledge of n can be replaced by a parameter
  // alpha with alpha > n/2 such that at least alpha processes are correct
  // in every execution. When set, both phase thresholds become alpha (wait
  // for alpha messages; a value supported by alpha senders wins) and n/t
  // are ignored — the caller is responsible for alpha > n/2.
  std::optional<std::size_t> alpha;

  // Instance tag: messages of other instances are ignored, letting several
  // independent consensus slots share one node (see messages.h).
  std::int64_t instance = 0;

  // Ablation switch (not in the paper): drop the Leaders' Coordination
  // Phase. With homonymous leaders this removes the mechanism that makes
  // leaders converge on one estimate — the `ab-coord` series of
  // tools/hds_paper (docs/paper_series.md) uses it to show why the phase
  // exists.
  bool skip_coordination_phase = false;

  // Task T2 under crash-RESTART (beyond the paper's crash-stop model): when
  // > 0, a decided process keeps re-broadcasting DECIDE at this period, so
  // a supervised respawn that missed the decision instant still terminates
  // once the reliable layer delivers one rebroadcast. 0 (the default)
  // re-broadcasts only at the decide itself, keeping the sim's
  // deterministic schedules byte-identical to before this knob existed.
  SimTime redecide_interval_ms = 0;
};

class MajorityHOmegaConsensus final : public Process {
 public:
  MajorityHOmegaConsensus(MajorityConsensusConfig cfg, const HOmegaHandle& fd);

  [[nodiscard]] const DecisionRecord& decision() const { return decision_; }
  [[nodiscard]] Round current_round() const { return r_; }
  [[nodiscard]] bool done() const { return phase_ == Phase::kDone; }

  // Phase transitions as a time-indexed trace; values index phase_name().
  [[nodiscard]] const Trajectory<int>& phase_trace() const { return phase_trace_; }
  static const char* phase_name(int phase);

  // Consensus instruments: rounds started, per-phase latency (one histogram
  // per phase, under phase=<name>), and the decide instant. Call before the
  // system starts; null detaches.
  void attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels = {});

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

 private:
  enum class Phase { kCoord, kPh0, kPh1, kPh2, kDone };

  struct RoundBuf {
    std::vector<CoordMsg> coord;     // all COORD(_, r, _) received
    std::vector<Value> ph0;          // estimates from PH0(r, v)
    std::vector<Value> ph1;          // estimates from PH1(r, v), one per sender
    std::vector<MaybeValue> ph2;     // estimates from PH2(r, e2)
  };

  void enter_round(Env& env, Round r);
  void advance(Env& env);            // run guards until no transition fires
  bool try_advance_once(Env& env);
  void decide(Env& env, Value v);
  void set_phase(Env& env, Phase next);
  [[nodiscard]] std::size_t wait_threshold() const;
  [[nodiscard]] bool is_quorum(std::size_t count) const;

  MajorityConsensusConfig cfg_;
  const HOmegaHandle* fd_;

  Phase phase_ = Phase::kCoord;
  Round r_ = 0;
  Value est1_ = 0;
  MaybeValue est2_;
  std::map<Round, RoundBuf> bufs_;   // future rounds buffer here too
  DecisionRecord decision_;

  TimerId redecide_timer_ = 0;  // periodic DECIDE rebroadcast, armed at decide()

  Trajectory<int> phase_trace_;
  SimTime phase_entered_at_ = 0;
  bool phase_timing_started_ = false;
  obs::Counter* m_rounds_ = nullptr;
  obs::Gauge* m_decide_at_ = nullptr;
  std::array<obs::Histogram*, 4> m_phase_latency_{};  // coord, ph0, ph1, ph2
};

}  // namespace hds
