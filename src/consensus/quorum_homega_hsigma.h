// Figure 9: consensus in HAS[HΩ, HΣ] — homonymous asynchronous system,
// reliable links, enriched with HΩ and HΣ. Works for ANY number of crash
// failures; neither n nor t nor the membership is known.
//
// Rounds have the same Leaders' Coordination Phase and Phase 0 as Fig. 8.
// Phases 1 and 2 replace the counted waits by HΣ quorums: a process
// broadcasts (id, r, sr, current_labels, est) and exits the phase once, for
// some pair (x, mset) of its h_quora and some sub-round sr', it holds a set
// M of messages all carrying x in their label sets whose sender-identity
// multiset is exactly mset. When the process's own h_labels changes, or a
// higher sub-round is observed, it bumps sr and rebroadcasts with the fresh
// labels (sub-rounds let quorums form after detector outputs settle).
// Phase 1 may be short-circuited by any PH2 of the round (adopting its
// estimate); Phase 2 by any COORD of the next round. Each round's PH1Q and
// PH2Q arrivals are indexed by (label, sub-round) as they arrive, and the
// quorum waits test h_quora against that index (consensus/quorum_index.h).
#pragma once

#include <array>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/trajectory.h"
#include "consensus/messages.h"
#include "consensus/quorum_index.h"
#include "fd/interfaces.h"
#include "obs/metrics.h"
#include "sim/process.h"
#include "spec/consensus_checkers.h"

namespace hds {

struct QuorumConsensusConfig {
  Value proposal = 0;
  SimTime guard_poll = 4;  // FD re-evaluation period
  // Instance tag: messages of other instances are ignored, letting several
  // independent consensus slots share one node (see messages.h).
  std::int64_t instance = 0;
};

class QuorumConsensus final : public Process {
 public:
  QuorumConsensus(QuorumConsensusConfig cfg, const HOmegaHandle& fd1, const HSigmaHandle& fd2);

  // The paper's closing remark of Section 5.3: the same algorithm solves
  // consensus in AAS[AΩ, HΣ] by dropping the Leaders' Coordination wait and
  // letting Phase 0 test D3.a_leader instead of h_leader = id(p). The COORD
  // broadcast is kept: Phase 2 uses it as the next-round signal.
  QuorumConsensus(QuorumConsensusConfig cfg, const AOmegaHandle& aomega,
                  const HSigmaHandle& fd2);

  [[nodiscard]] const DecisionRecord& decision() const { return decision_; }
  [[nodiscard]] Round current_round() const { return r_; }
  [[nodiscard]] std::int64_t current_sub_round() const { return sr_; }
  [[nodiscard]] std::int64_t max_sub_round_seen() const { return max_sr_seen_; }
  [[nodiscard]] bool done() const { return phase_ == Phase::kDone; }

  // Phase transitions as a time-indexed trace; values index phase_name().
  [[nodiscard]] const Trajectory<int>& phase_trace() const { return phase_trace_; }
  static const char* phase_name(int phase);

  // Consensus instruments: rounds started, sub-round bumps, per-phase
  // latency (under phase=<name>), and the decide instant. Call before the
  // system starts; null detaches.
  void attach_metrics(obs::MetricsRegistry* reg, const obs::Labels& labels = {});

  void on_start(Env& env) override;
  void on_message(Env& env, const Message& m) override;
  void on_timer(Env& env, TimerId id) override;

 private:
  enum class Phase { kCoord, kPh0, kPh1, kPh2, kDone };

  // One round's PH1Q or PH2Q traffic: the arrival index and each arrival's
  // estimate, by position.
  template <typename E>
  struct QuorumBuf {
    QuorumIndex index;
    std::vector<E> est;
    void add(Id id, std::int64_t sr, const std::set<Label>& labels, E e) {
      index.add(id, sr, labels);
      est.push_back(e);
    }
  };

  struct RoundBuf {
    std::vector<CoordMsg> coord;
    std::vector<Value> ph0;
    QuorumBuf<Value> ph1;
    QuorumBuf<MaybeValue> ph2;
  };

  // HΣ's output, read at most once per callback so that every wait one step
  // re-tests sees the same detector output: advance() owns it and the phase
  // code fills it on first use.
  using HSigmaRead = std::optional<HSigmaSnapshot>;
  const HSigmaSnapshot& hsigma(HSigmaRead& read) const;

  void enter_round(Env& env, Round r);
  void advance(Env& env);
  bool try_advance_once(Env& env, HSigmaRead& hs);
  void decide(Env& env, Value v);
  void enter_ph1(Env& env, HSigmaRead& hs);
  void enter_ph2(Env& env, HSigmaRead& hs);
  void set_phase(Env& env, Phase next);
  void bump_sub_round();

  QuorumConsensusConfig cfg_;
  const HOmegaHandle* fd1_ = nullptr;    // homonymous mode
  const AOmegaHandle* aomega_ = nullptr; // anonymous mode (AAS[AΩ, HΣ])
  const HSigmaHandle* fd2_;

  Phase phase_ = Phase::kCoord;
  Round r_ = 0;
  std::int64_t sr_ = 1;
  std::int64_t max_sr_seen_ = 1;
  std::set<Label> current_labels_;
  Value est1_ = 0;
  MaybeValue est2_;
  std::map<Round, RoundBuf> bufs_;
  DecisionRecord decision_;

  Trajectory<int> phase_trace_;
  SimTime phase_entered_at_ = 0;
  bool phase_timing_started_ = false;
  obs::Counter* m_rounds_ = nullptr;
  obs::Counter* m_sub_rounds_ = nullptr;
  obs::Gauge* m_decide_at_ = nullptr;
  std::array<obs::Histogram*, 4> m_phase_latency_{};  // coord, ph0, ph1, ph2
};

}  // namespace hds
