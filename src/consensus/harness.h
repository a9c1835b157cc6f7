// Experiment harness: assembles complete runs — identity patterns, crash
// schedules, detectors (oracle or real), consensus stacks — and returns the
// measurements the benchmarks report and the properties the tests check.
//
// Stacks provided:
//  - Fig. 8 over an HΩ oracle (HAS[t < n/2, HΩ], the paper's Theorem 7);
//  - Fig. 9 over HΩ+HΣ oracles (HAS[HΩ, HΣ], Theorem 8);
//  - Fig. 6 alone in HPS (Theorem 5 / Corollary 2);
//  - Fig. 7 alone in HSS (Theorem 6);
//  - full stack Fig. 6 ▸ Corollary 2 ▸ Fig. 8 under partial synchrony (the
//    paper's headline: consensus in HPS with majority correct);
//  - full stack Fig. 6 + Fig. 7-adapter ▸ Fig. 9 under synchrony (consensus
//    for any number of crashes, no knowledge of t/n/membership);
//  - anonymous full stack AP ▸ Lemmas 2+3 ▸ Observation 1 ▸ Fig. 9.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "fd/impl/ohp_polling.h"
#include "fd/oracles.h"
#include "fd/run_observer.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/qos.h"
#include "sim/sync_system.h"
#include "sim/system.h"
#include "sim/timing.h"
#include "spec/consensus_checkers.h"
#include "spec/fd_checkers.h"

namespace hds {

// ---------------------------------------------------------------- workloads

// Identifiers 1..n (the classical AS extreme of homonymy).
std::vector<Id> ids_unique(std::size_t n);
// Every process carries kBottomId (the anonymous AAS extreme).
std::vector<Id> ids_anonymous(std::size_t n);
// `distinct` identifiers spread over n processes (each identifier used at
// least once; remainder assigned pseudo-randomly by `seed`).
std::vector<Id> ids_homonymous(std::size_t n, std::size_t distinct, std::uint64_t seed);

std::vector<std::optional<CrashPlan>> crashes_none(std::size_t n);
// Processes n-1, n-2, ..., n-k crash at `at` (keeping process 0 and the
// small identifiers alive); `stagger` spaces them out.
std::vector<std::optional<CrashPlan>> crashes_last_k(std::size_t n, std::size_t k, SimTime at,
                                                     SimTime stagger = 0, bool partial = false);
std::vector<std::optional<SyncCrashPlan>> sync_crashes_last_k(std::size_t n, std::size_t k,
                                                              std::size_t at_step,
                                                              std::size_t stagger = 0,
                                                              bool partial = false);

std::vector<Value> distinct_proposals(std::size_t n);

// The ground truth a (planned) run will have, before the System exists —
// what an obs::OnlineMonitor needs at construction time.
GroundTruth ground_truth_of(const std::vector<Id>& ids,
                            const std::vector<std::optional<CrashPlan>>& crashes);
GroundTruth ground_truth_of(const std::vector<Id>& ids,
                            const std::vector<std::optional<SyncCrashPlan>>& crashes);

// ------------------------------------------------------------- run spec

// What every harness run on the simulator is made of, whatever its stack:
// identities and planned crashes, the seed, the observability sinks, the
// engine's shard count, and the ordered observer list (fd/run_observer.h).
// Observers must outlive the run.
struct RunSpec {
  std::vector<Id> ids;
  std::vector<std::optional<CrashPlan>> crashes;  // empty = none
  std::uint64_t seed = 1;
  // Observability sink shared by the network, the detectors and the
  // consensus layer (per-process series under proc=<index>); null disables.
  obs::MetricsRegistry* metrics = nullptr;
  // > 0: record the structured event log (with causal lineage) into the
  // result.
  std::size_t trace_capacity = 0;
  // Shard count for the conservative-synchronization engine; results are
  // bit-identical at any value. See SimRun for when it is forced to 1.
  std::size_t shards = 1;
  // Attached before start, listened to on every detector and finished after
  // the run, all in list order: earlier observers see each change first.
  std::vector<RunObserver*> observers;
};

// One simulated run assembled from a RunSpec: the only place a harness
// builds a System. The constructor builds it and attaches every observer in
// list order; listener(i) joins the observers' listeners for process i with
// FdOutputTee, in list order; finish() ends the run for every observer.
//
// The shard rule: a run with any observer, or on an oracle substrate (`oracle`
// detectors sample sys.now() from inside dispatch), runs on one shard;
// otherwise on spec.shards. Observers are driven from dispatch without
// synchronization. Results are bit-identical either way, so this only costs
// the parallelism, never the outcome.
class SimRun {
 public:
  SimRun(const RunSpec& spec, std::unique_ptr<TimingModel> timing, bool oracle = false);

  [[nodiscard]] System& sys() { return sys_; }
  // Null when no observer listens.
  [[nodiscard]] FdOutputListener* listener(ProcIndex i) const { return listeners_[i]; }
  void finish();

 private:
  std::vector<RunObserver*> observers_;
  System sys_;
  std::vector<std::unique_ptr<FdOutputTee>> tees_;
  std::vector<FdOutputListener*> listeners_;
};

// ------------------------------------------------------------- FD runs

struct Fig6Params : RunSpec {
  PartialSyncTiming::Params net;
  OHPPolling::Options fd_opts;  // ablation: freeze the timeout
  SimTime run_for = 4000;
  SimTime stable_window = 400;
  // Run the QoS analyzer over the detector trajectories (result.qos; also
  // emitted into `metrics` when both are set).
  bool collect_qos = false;
};

struct Fig6Result {
  CheckResult ohp_check;
  CheckResult homega_check;
  // Latest time any correct process last changed h_trusted (== the global
  // stabilization moment of the detector output), -1 if not converged.
  SimTime stabilization_time = -1;
  SimTime max_final_timeout = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t copies_delivered = 0;
  obs::QosReport qos;  // populated when collect_qos was set
  // Retained event log + ring evictions, when trace_capacity > 0 (see
  // ConsensusRunResult for the consensus-stack equivalents).
  std::vector<TraceEvent> trace_events;
  std::uint64_t trace_dropped = 0;
};

Fig6Result run_fig6(const Fig6Params& p);

struct Fig7Params {
  std::vector<Id> ids;
  std::vector<std::optional<SyncCrashPlan>> crashes;
  std::size_t steps = 30;
  std::uint64_t seed = 1;
  obs::MetricsRegistry* metrics = nullptr;  // per-process series; null disables
  bool collect_qos = false;                 // as in Fig6Params
  // Fig. 7 runs on the lock-step SyncSystem, which takes no RunSpec: the
  // monitor is its only observer. Null disables.
  obs::OnlineMonitor* monitor = nullptr;
};

struct Fig7Result {
  CheckResult check;
  // First step at which every correct process holds a live quorum
  // (m ⊆ I(S(x) ∩ Correct)); -1 if never.
  SimTime liveness_step = -1;
  std::size_t max_quora_stored = 0;
  std::uint64_t messages = 0;
  obs::QosReport qos;  // populated when collect_qos was set
};

Fig7Result run_fig7(const Fig7Params& p);

// --------------------------------------------------------- consensus runs

struct ConsensusRunResult {
  bool all_correct_decided = false;
  CheckResult check;
  std::vector<Value> proposals;
  std::vector<DecisionRecord> decisions;
  SimTime last_decision_time = -1;
  Round max_round = 0;
  std::int64_t max_sub_round = 0;  // Fig. 9 stacks only
  std::uint64_t broadcasts = 0;
  std::uint64_t copies_delivered = 0;
  std::map<std::string, std::uint64_t> broadcasts_by_type;  // per-phase accounting
  SimTime end_time = 0;
  // First lines of the structured event log, when the run was configured
  // with trace_capacity > 0 (replay debugging; see sim/tracelog.h).
  std::string trace_head;
  // The retained events themselves (chronological) and the count evicted
  // from the ring — feed obs::write_chrome_trace / write_trace_jsonl.
  std::vector<TraceEvent> trace_events;
  std::uint64_t trace_dropped = 0;
  obs::QosReport qos;  // populated by stacks run with collect_qos
  // Populated by run_fig9_full_stack when check_hsigma_safety is set:
  // perpetual HΣ properties (safety + monotonicity) over the run — the
  // checks that stay meaningful under an adversarial (crash-heavy,
  // convergence-free) schedule.
  CheckResult hsigma_safety_check;
};

struct Fig8OracleParams {
  std::vector<Id> ids;
  std::size_t t_known = 0;  // the algorithm's t parameter (crashes <= t)
  std::vector<std::optional<CrashPlan>> crashes;
  std::vector<Value> proposals;  // empty = distinct per process
  SimTime fd_stabilize = 0;
  OracleHOmega::Noise noise = OracleHOmega::Noise::kRotating;
  SimTime async_min = 1, async_max = 8;
  std::uint64_t seed = 1;
  SimTime max_time = 500'000;
  std::optional<std::size_t> alpha;     // footnote-5 mode (n/t ignored)
  bool skip_coordination_phase = false; // ablation
  SimTime guard_poll = 4;               // FD guard re-evaluation period
  // Instance tag stamped on every engine and message of this run — the
  // repeated-consensus entry point: a caller running one decision per log
  // slot passes the slot number here (engines ignore foreign instances).
  std::int64_t instance = 0;
  obs::MetricsRegistry* metrics = nullptr;  // per-process series; null disables
};

ConsensusRunResult run_fig8_with_oracle(const Fig8OracleParams& p);

struct Fig9OracleParams {
  std::vector<Id> ids;
  std::vector<std::optional<CrashPlan>> crashes;
  std::vector<Value> proposals;
  SimTime fd1_stabilize = 0;  // HΩ
  SimTime fd2_stabilize = 0;  // HΣ
  OracleHOmega::Noise noise = OracleHOmega::Noise::kRotating;
  SimTime async_min = 1, async_max = 8;
  std::uint64_t seed = 1;
  SimTime max_time = 500'000;
  SimTime guard_poll = 4;  // FD guard re-evaluation period
  obs::MetricsRegistry* metrics = nullptr;  // per-process series; null disables
};

ConsensusRunResult run_fig9_with_oracle(const Fig9OracleParams& p);

// After the run, `metrics` additionally carries fd_stabilization_time
// (latest trusted-output change among correct processes).
struct Fig8FullStackParams : RunSpec {
  std::size_t t_known = 0;
  std::vector<Value> proposals;
  PartialSyncTiming::Params net;
  SimTime max_time = 500'000;
  bool collect_qos = false;  // as in Fig6Params
};

// Fig. 6 ▸ Corollary 2 ▸ Fig. 8 in HPS[t < n/2].
ConsensusRunResult run_fig8_full_stack(const Fig8FullStackParams& p);

struct Fig9FullStackParams : RunSpec {
  std::vector<Value> proposals;
  SimTime delta = 3;  // known synchronous link bound
  SimTime max_time = 500'000;
  bool anonymous_ap_stack = false;  // true: AP ▸ Lemmas 2/3 instead of Fig. 6/7
  // QoS of the Fig. 6 + Fig. 7-adapter detectors; the anonymous AP stack
  // ignores it, and the observers' listeners too (its adapters are
  // pull-through views with no change events of their own).
  bool collect_qos = false;
  // Evaluate the perpetual HΣ checks (safety + monotonicity) over the
  // HSigmaComponent traces into result.hsigma_safety_check. Off by default;
  // the chaos runner turns it on. Ignored by the anonymous AP stack.
  bool check_hsigma_safety = false;
};

// Synchronous full stack for Fig. 9: OHPPolling (HΩ) + HSigmaComponent (HΣ)
// under a known link bound; or, with anonymous_ap_stack, the AP-based
// anonymous derivation of both detectors.
ConsensusRunResult run_fig9_full_stack(const Fig9FullStackParams& p);

struct Fig9AnonOmegaParams {
  std::size_t n = 0;  // anonymous: every identifier is kBottomId
  std::vector<std::optional<CrashPlan>> crashes;
  std::vector<Value> proposals;
  SimTime aomega_stabilize = 0;
  SimTime fd2_stabilize = 0;
  SimTime async_min = 1, async_max = 8;
  std::uint64_t seed = 1;
  SimTime max_time = 500'000;
  obs::MetricsRegistry* metrics = nullptr;  // per-process series; null disables
};

// The Section 5.3 closing remark: Fig. 9 adapted to AAS[AΩ, HΣ] (leaders'
// coordination removed, Phase 0 driven by a_leader), over oracles.
ConsensusRunResult run_fig9_anon_aomega(const Fig9AnonOmegaParams& p);

}  // namespace hds
