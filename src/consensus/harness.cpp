#include "consensus/harness.h"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "common/rng.h"
#include "consensus/majority_homega.h"
#include "consensus/quorum_homega_hsigma.h"
#include "fd/impl/ap_sync.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/impl/ohp_polling.h"
#include "fd/reduce/ap_to_hsigma.h"
#include "fd/reduce/ap_to_ohp.h"
#include "fd/reduce/ohp_to_homega.h"
#include "sim/stacked_process.h"

namespace hds {

// ---------------------------------------------------------------- workloads

std::vector<Id> ids_unique(std::size_t n) {
  std::vector<Id> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = i + 1;
  return out;
}

std::vector<Id> ids_anonymous(std::size_t n) { return std::vector<Id>(n, kBottomId); }

std::vector<Id> ids_homonymous(std::size_t n, std::size_t distinct, std::uint64_t seed) {
  if (distinct == 0 || distinct > n) {
    throw std::invalid_argument("ids_homonymous: need 1 <= distinct <= n");
  }
  Rng rng(seed);
  std::vector<Id> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    // The first `distinct` processes pin one instance of each identifier;
    // the rest collide pseudo-randomly.
    out[i] = i < distinct ? i + 1 : static_cast<Id>(rng.uniform(1, static_cast<Value>(distinct)));
  }
  return out;
}

std::vector<std::optional<CrashPlan>> crashes_none(std::size_t n) {
  return std::vector<std::optional<CrashPlan>>(n);
}

std::vector<std::optional<CrashPlan>> crashes_last_k(std::size_t n, std::size_t k, SimTime at,
                                                     SimTime stagger, bool partial) {
  if (k >= n) throw std::invalid_argument("crashes_last_k: would crash everyone");
  auto out = crashes_none(n);
  for (std::size_t j = 0; j < k; ++j) {
    out[n - 1 - j] = CrashPlan{at + stagger * static_cast<SimTime>(j), partial};
  }
  return out;
}

std::vector<Value> distinct_proposals(std::size_t n) {
  std::vector<Value> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<Value>(100 + i);
  return out;
}

GroundTruth ground_truth_of(const std::vector<Id>& ids,
                            const std::vector<std::optional<CrashPlan>>& crashes) {
  GroundTruth gt;
  gt.ids = ids;
  gt.correct.resize(ids.size(), true);
  for (std::size_t i = 0; i < ids.size() && i < crashes.size(); ++i) {
    gt.correct[i] = !crashes[i].has_value();
  }
  return gt;
}

namespace {

obs::Labels proc_labels(ProcIndex i) { return {{"proc", std::to_string(i)}}; }

std::vector<SimTime> crash_instants(const std::vector<std::optional<CrashPlan>>& crashes,
                                    std::size_t n) {
  std::vector<SimTime> out(n, -1);
  for (std::size_t i = 0; i < n && i < crashes.size(); ++i) {
    if (crashes[i]) out[i] = crashes[i]->at;
  }
  return out;
}

// The one shard rule (see SimRun).
std::size_t run_shards(const RunSpec& spec, bool oracle) {
  if (oracle || !spec.observers.empty()) return 1;
  return spec.shards == 0 ? 1 : spec.shards;
}

SystemConfig system_config(const RunSpec& spec, std::unique_ptr<TimingModel> timing, bool oracle) {
  SystemConfig cfg;
  cfg.ids = spec.ids;
  cfg.timing = std::move(timing);
  cfg.crashes = spec.crashes;
  cfg.seed = spec.seed;
  cfg.metrics = spec.metrics;
  cfg.trace_capacity = spec.trace_capacity;
  cfg.shards = run_shards(spec, oracle);
  return cfg;
}

// Latest trusted-output change among correct processes — the detector
// stack's global stabilization instant; -1 if none.
SimTime stabilization_time(const System& sys, const std::vector<OHPPolling*>& fds) {
  SimTime stab = -1;
  for (ProcIndex i = 0; i < fds.size(); ++i) {
    if (sys.is_correct(i)) stab = std::max(stab, fds[i]->trusted_trace().last_change());
  }
  return stab;
}

void set_stabilization_gauge(obs::MetricsRegistry* metrics, SimTime stab) {
  if (metrics != nullptr && stab >= 0) metrics->gauge("fd_stabilization_time").set(stab);
}

// QoS over the run's Fig. 6 detectors and HΣ components (either list may be
// empty), emitted into the spec's registry.
obs::QosReport detector_qos(const System& sys, const RunSpec& spec, SimTime gst, SimTime run_end,
                            const std::vector<OHPPolling*>& fds,
                            const std::vector<HSigmaComponent*>& hsigs = {}) {
  obs::QosInput in;
  in.gt = GroundTruth::from(sys);
  in.crash_at = crash_instants(spec.crashes, sys.n());
  in.gst = gst;
  in.run_end = run_end;
  for (const OHPPolling* fd : fds) {
    in.trusted.push_back(&fd->trusted_trace());
    in.homega.push_back(&fd->homega_trace());
  }
  for (const HSigmaComponent* h : hsigs) in.hsigma.push_back(&h->core().trace());
  obs::QosReport qos = obs::analyze_qos(in);
  obs::emit_qos(qos, spec.metrics);
  return qos;
}

}  // namespace

SimRun::SimRun(const RunSpec& spec, std::unique_ptr<TimingModel> timing, bool oracle)
    : observers_(spec.observers), sys_(system_config(spec, std::move(timing), oracle)) {
  for (RunObserver* o : observers_) o->attach(sys_);
  listeners_.resize(sys_.n(), nullptr);
  for (ProcIndex i = 0; i < sys_.n(); ++i) {
    for (RunObserver* o : observers_) {
      FdOutputListener* l = o->listener(i);
      if (l == nullptr) continue;
      if (listeners_[i] != nullptr) {
        tees_.push_back(std::make_unique<FdOutputTee>(listeners_[i], l));
        l = tees_.back().get();
      }
      listeners_[i] = l;
    }
  }
}

void SimRun::finish() {
  for (RunObserver* o : observers_) o->finish();
}

// ------------------------------------------------------------- FD runs

Fig6Result run_fig6(const Fig6Params& p) {
  SimRun run(p, std::make_unique<PartialSyncTiming>(p.net));
  System& sys = run.sys();
  std::vector<OHPPolling*> fds(sys.n());
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    auto fd = std::make_unique<OHPPolling>(p.fd_opts);
    fd->attach_metrics(p.metrics, proc_labels(i));
    fd->set_output_listener(run.listener(i));
    fds[i] = fd.get();
    sys.set_process(i, std::move(fd));
  }
  sys.start();
  sys.run_until(p.run_for);
  run.finish();

  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<Multiset<Id>>*> trusted;
  std::vector<const Trajectory<HOmegaOut>*> homega;
  Fig6Result res;
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    trusted.push_back(&fds[i]->trusted_trace());
    homega.push_back(&fds[i]->homega_trace());
    if (sys.is_correct(i)) {
      res.max_final_timeout = std::max(res.max_final_timeout, fds[i]->timeout());
    }
  }
  res.ohp_check = check_ohp(gt, trusted, p.run_for, p.stable_window);
  res.homega_check = check_homega(gt, homega, p.run_for, p.stable_window);
  if (res.ohp_check) res.stabilization_time = stabilization_time(sys, fds);
  res.broadcasts = sys.net_stats().broadcasts;
  res.copies_delivered = sys.net_stats().copies_delivered;
  set_stabilization_gauge(p.metrics, res.stabilization_time);
  if (p.collect_qos) res.qos = detector_qos(sys, p, p.net.gst, p.run_for, fds);
  if (sys.trace().enabled()) {
    res.trace_events = sys.trace().events();
    res.trace_dropped = sys.trace().dropped();
  }
  return res;
}

Fig7Result run_fig7(const Fig7Params& p) {
  SimRun run(p, std::make_unique<BoundedTiming>(1));
  System& sys = run.sys();
  std::vector<HSigmaComponent*> fds(sys.n());
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    auto fd = std::make_unique<HSigmaComponent>(1);
    fd->attach_metrics(p.metrics, proc_labels(i));
    fd->set_output_listener(run.listener(i));
    fds[i] = fd.get();
    sys.set_process(i, std::move(fd));
  }
  const auto steps = static_cast<SimTime>(p.steps);
  sys.start();
  // Steps 0..steps-1 are broadcast by tick steps-1 and folded by tick steps,
  // where the survivors also broadcast step `steps`; the run counts the
  // former only.
  sys.run_until(steps - 1);
  Fig7Result res;
  res.messages = sys.net_stats().broadcasts;
  sys.run_until(steps);
  run.finish();

  const GroundTruth gt = GroundTruth::from(sys);
  std::vector<const Trajectory<HSigmaSnapshot>*> snaps;
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    const Trajectory<HSigmaSnapshot>& trace = fds[i]->core().trace();
    snaps.push_back(&trace);
    if (sys.is_correct(i) && !trace.empty()) {
      res.max_quora_stored = std::max(res.max_quora_stored, trace.final().quora.size());
    }
  }
  res.check = check_hsigma(gt, snaps);
  // First step from which every correct process holds a live quorum. With
  // carriers fixed by the whole trace, the predicate is monotone in time.
  if (res.check) {
    SimTime all_live = -1;
    for (ProcIndex i = 0; i < sys.n(); ++i) {
      if (!sys.is_correct(i)) continue;
      SimTime mine = -1;
      for (const auto& [t, snap] : snaps[i]->points()) {
        // A quorum whose multiset is within I(Correct) suffices here: in
        // Fig. 7, S(m) ⊇ the senders observed, and the liveness pair is
        // exactly (I(Correct), I(Correct)).
        for (const auto& [x, m] : snap.quora) {
          (void)x;
          if (m.is_subset_of(gt.correct_ids())) {
            mine = t;
            break;
          }
        }
        if (mine >= 0) break;
      }
      if (mine < 0) {
        all_live = -1;
        break;
      }
      all_live = std::max(all_live, mine);
    }
    // The fold of step s is stamped at tick s + 1.
    res.liveness_step = all_live < 0 ? -1 : all_live - 1;
  }
  // Synchronous: no stabilization delay to forgive.
  if (p.collect_qos) res.qos = detector_qos(sys, p, /*gst=*/0, steps, {}, fds);
  return res;
}

// --------------------------------------------------------- consensus runs

namespace {

std::vector<Value> ensure_proposals(const std::vector<Value>& given, std::size_t n) {
  if (given.empty()) return distinct_proposals(n);
  if (given.size() != n) throw std::invalid_argument("proposals size != n");
  return given;
}

// The oracle runners' Params are not RunSpecs: they take no observers and
// run over AsyncTiming with the oracle delay bounds.
template <typename OracleParams>
SimRun oracle_run(const OracleParams& p, std::vector<Id> ids) {
  RunSpec spec;
  spec.ids = std::move(ids);
  spec.crashes = p.crashes;
  spec.seed = p.seed;
  spec.metrics = p.metrics;
  return SimRun(spec, std::make_unique<AsyncTiming>(kOracleAsyncMin, kOracleAsyncMax),
                /*oracle=*/true);
}

// The path all five consensus runners share: starts the system, runs it in
// slices until every correct process has decided (or max_time elapses),
// finishes the observers, and collects the decisions.
template <typename Engine>
ConsensusRunResult run_until_decided(SimRun& run, const std::vector<Engine*>& procs,
                                     std::vector<Value> proposals, SimTime max_time) {
  System& sys = run.sys();
  const auto all_decided = [&] {
    for (ProcIndex i = 0; i < procs.size(); ++i) {
      if (sys.is_correct(i) && !procs[i]->decision().decided) return false;
    }
    return true;
  };
  ConsensusRunResult res;
  sys.start();
  while (sys.now() < max_time) {
    sys.run_until(std::min(max_time, sys.now() + 250));
    if (all_decided()) {
      res.all_correct_decided = true;
      break;
    }
  }
  res.end_time = sys.now();
  run.finish();

  for (ProcIndex i = 0; i < procs.size(); ++i) {
    res.decisions.push_back(procs[i]->decision());
    if (res.decisions[i].decided) {
      res.last_decision_time = std::max(res.last_decision_time, res.decisions[i].at);
    }
    if (!sys.is_correct(i)) continue;
    res.max_round = std::max(res.max_round, procs[i]->current_round());
    if constexpr (std::is_same_v<Engine, QuorumConsensus>) {
      res.max_sub_round = std::max(res.max_sub_round, procs[i]->max_sub_round_seen());
    }
  }
  res.check = check_consensus(GroundTruth::from(sys), proposals, res.decisions);
  res.proposals = std::move(proposals);
  res.broadcasts = sys.net_stats().broadcasts;
  res.copies_delivered = sys.net_stats().copies_delivered;
  res.broadcasts_by_type = sys.net_stats().broadcasts_by_type;
  if (sys.trace().enabled()) {
    res.trace_head = sys.trace().dump(400);
    res.trace_events = sys.trace().events();
    res.trace_dropped = sys.trace().dropped();
  }
  return res;
}

}  // namespace

ConsensusRunResult run_fig8_with_oracle(const Fig8OracleParams& p) {
  const std::size_t n = p.ids.size();
  std::vector<Value> proposals = ensure_proposals(p.proposals, n);
  SimRun run = oracle_run(p, p.ids);
  System& sys = run.sys();
  OracleHOmega oracle(GroundTruth::from(sys), [&sys] { return sys.now(); }, p.fd_stabilize,
                      p.noise);
  std::vector<MajorityHOmegaConsensus*> procs(n);
  for (ProcIndex i = 0; i < n; ++i) {
    MajorityConsensusConfig cons_cfg;
    cons_cfg.n = n;
    cons_cfg.t = p.t_known;
    cons_cfg.proposal = proposals[i];
    cons_cfg.alpha = p.alpha;
    cons_cfg.skip_coordination_phase = p.skip_coordination_phase;
    cons_cfg.guard_poll = p.guard_poll;
    cons_cfg.instance = p.instance;
    auto proc = std::make_unique<MajorityHOmegaConsensus>(cons_cfg, oracle.handle(i));
    proc->attach_metrics(p.metrics, proc_labels(i));
    procs[i] = proc.get();
    sys.set_process(i, std::move(proc));
  }
  return run_until_decided(run, procs, std::move(proposals), p.max_time);
}

ConsensusRunResult run_fig9_with_oracle(const Fig9OracleParams& p) {
  const std::size_t n = p.ids.size();
  std::vector<Value> proposals = ensure_proposals(p.proposals, n);
  SimRun run = oracle_run(p, p.ids);
  System& sys = run.sys();
  auto clock = [&sys] { return sys.now(); };
  OracleHOmega fd1(GroundTruth::from(sys), clock, p.fd1_stabilize, p.noise);
  OracleHSigma fd2(GroundTruth::from(sys), clock, p.fd2_stabilize);
  std::vector<QuorumConsensus*> procs(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto proc = std::make_unique<QuorumConsensus>(QuorumConsensusConfig{proposals[i], p.guard_poll},
                                                  fd1.handle(i), fd2.handle(i));
    proc->attach_metrics(p.metrics, proc_labels(i));
    procs[i] = proc.get();
    sys.set_process(i, std::move(proc));
  }
  return run_until_decided(run, procs, std::move(proposals), p.max_time);
}

ConsensusRunResult run_fig9_anon_aomega(const Fig9AnonOmegaParams& p) {
  const std::size_t n = p.n;
  std::vector<Value> proposals = ensure_proposals(p.proposals, n);
  SimRun run = oracle_run(p, ids_anonymous(n));
  System& sys = run.sys();
  auto clock = [&sys] { return sys.now(); };
  OracleAOmega fd3(GroundTruth::from(sys), clock, p.aomega_stabilize);
  OracleHSigma fd2(GroundTruth::from(sys), clock, p.fd2_stabilize);
  std::vector<QuorumConsensus*> procs(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto proc = std::make_unique<QuorumConsensus>(QuorumConsensusConfig{proposals[i], 4},
                                                  fd3.handle(i), fd2.handle(i));
    proc->attach_metrics(p.metrics, proc_labels(i));
    procs[i] = proc.get();
    sys.set_process(i, std::move(proc));
  }
  return run_until_decided(run, procs, std::move(proposals), p.max_time);
}

ConsensusRunResult run_fig8_full_stack(const Fig8FullStackParams& p) {
  const std::size_t n = p.ids.size();
  std::vector<Value> proposals = ensure_proposals(p.proposals, n);
  SimRun run(p, std::make_unique<PartialSyncTiming>(p.net));
  System& sys = run.sys();
  std::vector<MajorityHOmegaConsensus*> procs(n);
  std::vector<OHPPolling*> fds(n);
  for (ProcIndex i = 0; i < n; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    auto* fd = stack->add(std::make_unique<OHPPolling>());
    fd->attach_metrics(p.metrics, proc_labels(i));
    fd->set_output_listener(run.listener(i));
    fds[i] = fd;
    MajorityConsensusConfig cons_cfg;
    cons_cfg.n = n;
    cons_cfg.t = p.t_known;
    cons_cfg.proposal = proposals[i];
    auto cons = std::make_unique<MajorityHOmegaConsensus>(cons_cfg, *fd);
    cons->attach_metrics(p.metrics, proc_labels(i));
    procs[i] = stack->add(std::move(cons));
    sys.set_process(i, std::move(stack));
  }
  ConsensusRunResult res = run_until_decided(run, procs, std::move(proposals), p.max_time);
  set_stabilization_gauge(p.metrics, stabilization_time(sys, fds));
  if (p.collect_qos) res.qos = detector_qos(sys, p, p.net.gst, res.end_time, fds);
  return res;
}

ConsensusRunResult run_fig9_full_stack(const Fig9FullStackParams& p) {
  const std::size_t n = p.ids.size();
  std::vector<Value> proposals = ensure_proposals(p.proposals, n);
  // A synchronous system: every copy delivered within the known bound.
  SimRun run(p, std::make_unique<BoundedTiming>(p.delta));
  System& sys = run.sys();

  // Adapters owned per node; kept alive alongside the system.
  std::vector<std::unique_ptr<ApToOhp>> ap_ohp(n);
  std::vector<std::unique_ptr<ApToHSigma>> ap_hsig(n);
  std::vector<std::unique_ptr<OhpToHOmega>> ohp_homega(n);
  std::vector<QuorumConsensus*> procs(n);
  std::vector<OHPPolling*> fds;
  std::vector<HSigmaComponent*> hsigs;

  for (ProcIndex i = 0; i < n; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    const HOmegaHandle* fd1 = nullptr;
    const HSigmaHandle* fd2 = nullptr;
    if (p.anonymous_ap_stack) {
      // AP ▸ Lemma 2 ▸ Observation 1 gives HΩ; AP ▸ Lemma 3 gives HΣ.
      auto* ap = stack->add(std::make_unique<APComponent>(p.delta + 1));
      ap_ohp[i] = std::make_unique<ApToOhp>(*ap);
      ohp_homega[i] = std::make_unique<OhpToHOmega>(*ap_ohp[i], sys.id_of(i));
      ap_hsig[i] = std::make_unique<ApToHSigma>(*ap);
      fd1 = ohp_homega[i].get();
      fd2 = ap_hsig[i].get();
    } else {
      // Fig. 6 gives HΩ (Corollary 2); the Fig. 7 adapter gives HΣ.
      auto* ohp = stack->add(std::make_unique<OHPPolling>());
      auto* hsig = stack->add(std::make_unique<HSigmaComponent>(p.delta + 1));
      ohp->attach_metrics(p.metrics, proc_labels(i));
      hsig->attach_metrics(p.metrics, proc_labels(i));
      ohp->set_output_listener(run.listener(i));
      hsig->set_output_listener(run.listener(i));
      fds.push_back(ohp);
      hsigs.push_back(hsig);
      fd1 = ohp;
      fd2 = hsig;
    }
    auto cons = std::make_unique<QuorumConsensus>(QuorumConsensusConfig{proposals[i], 4}, *fd1,
                                                  *fd2);
    cons->attach_metrics(p.metrics, proc_labels(i));
    procs[i] = stack->add(std::move(cons));
    sys.set_process(i, std::move(stack));
  }
  ConsensusRunResult res = run_until_decided(run, procs, std::move(proposals), p.max_time);
  if (p.anonymous_ap_stack) return res;
  set_stabilization_gauge(p.metrics, stabilization_time(sys, fds));
  if (p.check_hsigma_safety) {
    // Perpetual HΣ properties only: they hold at every instant of every
    // admissible run, so they stay meaningful even when a chaos schedule
    // prevents the eventual properties from converging within the run.
    const GroundTruth gt = GroundTruth::from(sys);
    std::vector<const Trajectory<HSigmaSnapshot>*> snaps;
    for (const HSigmaComponent* h : hsigs) snaps.push_back(&h->core().trace());
    res.hsigma_safety_check = check_hsigma_safety(gt, snaps);
    if (res.hsigma_safety_check) {
      res.hsigma_safety_check = check_hsigma_monotonicity(snaps);
    }
  }
  // Synchronous: converge from the start, so no GST to forgive.
  if (p.collect_qos) res.qos = detector_qos(sys, p, /*gst=*/0, res.end_time, fds, hsigs);
  return res;
}

}  // namespace hds
