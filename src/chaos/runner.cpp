#include "chaos/runner.h"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>

#include "chaos/injector.h"
#include "consensus/harness.h"
#include "net/reliable.h"
#include "obs/monitor.h"
#include "smr/harness.h"

namespace hds::chaos {

const char* stack_name(StackKind s) {
  switch (s) {
    case StackKind::kFig6: return "fig6";
    case StackKind::kFig8: return "fig8";
    case StackKind::kFig9: return "fig9";
    case StackKind::kSmr: return "smr";
  }
  return "?";
}

StackKind stack_from_name(const std::string& name) {
  for (StackKind s : {StackKind::kFig6, StackKind::kFig8, StackKind::kFig9, StackKind::kSmr}) {
    if (name == stack_name(s)) return s;
  }
  throw std::invalid_argument("ChaosCase: unknown stack '" + name + "'");
}

obs::Json ChaosCase::to_json() const {
  obs::Json j = obs::Json::object();
  j["stack"] = stack_name(stack);
  j["n"] = n;
  j["distinct"] = distinct;
  j["crash_k"] = crash_k;
  j["crash_at"] = crash_at;
  j["gst"] = gst;
  j["delta"] = delta;
  j["run_for"] = run_for;
  j["max_time"] = max_time;
  j["seed"] = seed;
  if (reliable) j["reliable"] = true;
  j["plan"] = plan.to_json();
  return j;
}

ChaosCase ChaosCase::from_json(const obs::Json& j) {
  ChaosCase c;
  const obs::Json* stack = j.find("stack");
  if (stack == nullptr) throw std::invalid_argument("ChaosCase: missing stack");
  c.stack = stack_from_name(stack->str());
  c.n = static_cast<std::size_t>(j.number_or("n", 6));
  c.distinct = static_cast<std::size_t>(j.number_or("distinct", 3));
  c.crash_k = static_cast<std::size_t>(j.number_or("crash_k", 0));
  c.crash_at = static_cast<SimTime>(j.number_or("crash_at", 0));
  c.gst = static_cast<SimTime>(j.number_or("gst", 200));
  c.delta = static_cast<SimTime>(j.number_or("delta", 3));
  c.run_for = static_cast<SimTime>(j.number_or("run_for", 5000));
  c.max_time = static_cast<SimTime>(j.number_or("max_time", 60'000));
  c.seed = static_cast<std::uint64_t>(j.number_or("seed", 1));
  if (const obs::Json* rel = j.find("reliable")) c.reliable = rel->boolean();
  if (const obs::Json* plan = j.find("plan")) c.plan = FaultPlan::from_json(*plan);
  return c;
}

std::vector<std::string> ChaosOutcome::violation_tags() const {
  std::set<std::string> tags;
  for (const std::string& v : violations) tags.insert(v.substr(0, v.find(':')));
  return {tags.begin(), tags.end()};
}

// ------------------------------------------------------- admissibility

namespace {

// Rationale per stack (the envelope inside which the paper's theorems
// apply, so every checker is expected to pass):
//
//  fig6 (HPS): link faults must heal by GST (the model only allows
//  loss/arbitrary delay *before* GST); all crashes — planned, scheduled and
//  trigger-budgeted — must happen in the first half of the run so the
//  eventual checks have a convergence tail; at least 2 processes survive.
//
//  fig8 (HPS[t < n/2]): total crashes within the algorithm's t; link
//  clauses may only *delay* or *reorder*, and must heal by GST. With
//  `reliable` off, no duplication (the homonymous consensus layers count
//  messages — processes cannot tell senders apart, so duplication is
//  outside the model) and no loss/partition either: Fig. 8 is an HAS
//  algorithm (reliable links) — its quorum waits never retransmit, so
//  adversarial pre-GST loss can permanently wedge a round once more than t
//  processes miss a phase quorum (tests/repros/fig8_loss_wedge.json, a
//  fuzzer finding long kept as a known-wedge artifact). With `reliable` on
//  the case runs behind the ARQ emulator, which retransmits through loss
//  and suppresses duplicates — restoring the HAS assumption — so kLoss and
//  kDuplicate clauses (healing by GST as ever) join the envelope and the
//  wedge repro flips to "decides". Partitions stay out: a total cut is not
//  loss the ARQ layer is meant to beat, it is a different model.
//
//  fig9 (synchronous): no link clauses at all (every copy must arrive
//  within the known bound delta); crashes are otherwise free — the stack
//  tolerates any number of crashes short of leaving fewer than 2 alive.
bool admissible_fig6(const ChaosCase& c) {
  if (c.run_for < 2000 || c.gst < 1 || c.gst > c.run_for / 4 || c.delta < 1) return false;
  const SimTime mid = c.run_for / 2;
  if (c.crash_k + c.plan.crash_budget() > c.n - 2) return false;
  if (c.crash_k > 0 && (c.crash_at < 1 || c.crash_at > mid)) return false;
  const SimTime lfe = c.plan.link_faults_end();
  if (lfe < 0 || lfe > c.gst) return false;
  for (const FaultClause& cl : c.plan.clauses) {
    if (cl.kind == ClauseKind::kCrashAt && (cl.at < 1 || cl.at > mid || cl.proc >= c.n)) {
      return false;
    }
    if (is_trigger_kind(cl.kind) && (cl.until < 1 || cl.until > mid)) return false;
    if (cl.kind == ClauseKind::kCrashOnQuorum) return false;  // no HΣ in this stack
  }
  return true;
}

bool admissible_fig8(const ChaosCase& c) {
  if (c.max_time < 20'000 || c.gst < 1 || c.gst > 2000 || c.delta < 1) return false;
  const std::size_t t_known = (c.n - 1) / 2;
  if (c.crash_k + c.plan.crash_budget() > t_known) return false;
  if (c.crash_k > 0 && (c.crash_at < 1 || c.crash_at > c.max_time / 4)) return false;
  const SimTime lfe = c.plan.link_faults_end();
  if (lfe < 0 || lfe > c.gst) return false;
  for (const FaultClause& cl : c.plan.clauses) {
    if (cl.kind == ClauseKind::kPartition) return false;
    if (!c.reliable && (cl.kind == ClauseKind::kDuplicate || cl.kind == ClauseKind::kLoss)) {
      return false;
    }
    if (cl.kind == ClauseKind::kCrashAt && (cl.at < 1 || cl.at > c.max_time / 4 || cl.proc >= c.n)) {
      return false;
    }
    if (cl.kind == ClauseKind::kCrashOnQuorum) return false;  // no HΣ in this stack
  }
  return true;
}

// smr (HPS[t < n/2]): the replicated log rides the fig8 stack — recovery
// settles in-doubt slots through Fig. 8 instances — so it inherits the fig8
// link envelope verbatim (delay/reorder healing by GST; loss/duplication
// only behind the ARQ emulator; partitions never). Crashes must land inside
// the load window (first half of run_for) so the convergence linger has a
// clean tail, and max_time must leave room for that linger.
bool admissible_smr(const ChaosCase& c) {
  if (c.run_for < 4000 || c.gst < 1 || c.gst > c.run_for / 4 || c.delta < 1) return false;
  if (c.max_time < 2 * c.run_for) return false;
  const std::size_t t_known = (c.n - 1) / 2;
  if (c.crash_k + c.plan.crash_budget() > t_known) return false;
  const SimTime mid = c.run_for / 2;
  if (c.crash_k > 0 && (c.crash_at < 1 || c.crash_at > mid)) return false;
  const SimTime lfe = c.plan.link_faults_end();
  if (lfe < 0 || lfe > c.gst) return false;
  for (const FaultClause& cl : c.plan.clauses) {
    if (cl.kind == ClauseKind::kPartition) return false;
    if (!c.reliable && (cl.kind == ClauseKind::kDuplicate || cl.kind == ClauseKind::kLoss)) {
      return false;
    }
    if (cl.kind == ClauseKind::kCrashAt && (cl.at < 1 || cl.at > mid || cl.proc >= c.n)) {
      return false;
    }
    if (is_trigger_kind(cl.kind) && (cl.until < 1 || cl.until > mid)) return false;
    if (cl.kind == ClauseKind::kCrashOnQuorum) return false;  // no HΣ in this stack
  }
  return true;
}

bool admissible_fig9(const ChaosCase& c) {
  if (c.max_time < 20'000 || c.delta < 1 || c.delta > 10) return false;
  if (c.crash_k + c.plan.crash_budget() > c.n - 2) return false;
  if (c.crash_k > 0 && (c.crash_at < 1 || c.crash_at > c.max_time / 4)) return false;
  for (const FaultClause& cl : c.plan.clauses) {
    if (is_link_kind(cl.kind)) return false;  // synchronous model: none allowed
    if (cl.kind == ClauseKind::kCrashAt && (cl.at < 1 || cl.at > c.max_time / 4 || cl.proc >= c.n)) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool admissible(const ChaosCase& c) {
  if (c.n < 4 || c.n > 16 || c.distinct < 1 || c.distinct > c.n) return false;
  for (const FaultClause& cl : c.plan.clauses) {
    if (cl.prob < 0.0 || cl.prob > 1.0 || cl.delay < 0 || cl.from < 0) return false;
  }
  switch (c.stack) {
    case StackKind::kFig6: return admissible_fig6(c);
    case StackKind::kFig8: return admissible_fig8(c);
    case StackKind::kFig9: return admissible_fig9(c);
    case StackKind::kSmr: return admissible_smr(c);
  }
  return false;
}

// ------------------------------------------------------------ execution

namespace {

void add_monitor_violations(const obs::OnlineMonitor& mon, std::vector<std::string>& out) {
  std::set<std::string> seen;
  for (const obs::MonitorEvent& e : mon.events()) {
    if (e.severity != obs::MonitorEvent::Severity::kViolation) continue;
    if (!seen.insert(e.rule).second) continue;  // first event per rule suffices
    out.push_back("monitor-" + e.rule + ": proc=" + std::to_string(e.proc) +
                  " at=" + std::to_string(e.at) + " " + e.detail);
  }
}

// Base HPS environment for chaos runs. `lossy` adds ambient pre-GST message
// loss; fig6 can take it (the polling FD retransmits every period), but
// fig8 runs delay-only — its consensus layer inherits Fig. 8's reliable-link
// (HAS) assumption, and even ambient loss can wedge a quorum wait at small n
// (the fuzzer found n=4 empty-plan cases wedged by 5% loss alone).
PartialSyncTiming::Params hps_net(const ChaosCase& c, bool lossy) {
  PartialSyncTiming::Params net;
  net.gst = c.gst;
  net.delta = c.delta;
  net.pre_gst_loss = lossy ? 0.05 : 0.0;
  net.pre_gst_max_delay = 3 * c.delta;
  return net;
}

// The fig8 and smr observers. The injector always attaches: its crash
// clauses and trigger listener live there. In reliable mode the ARQ
// emulator follows it and takes over the link seam, wrapping the injector:
// it re-judges dropped copies at backed-off future instants
// (retransmission) and suppresses injected duplicates — the sim mirror of
// net/reliable.h. It draws no randomness of its own, so replay determinism
// is untouched.
std::vector<RunObserver*> reliable_observers(const ChaosCase& c, FaultInjector& inj,
                                             std::optional<net::ReliableLinkEmulator>& rel) {
  if (!c.reliable) return {&inj};
  rel.emplace(inj);
  return {&inj, &*rel};
}

}  // namespace

ChaosOutcome run_chaos_case(const ChaosCase& c, std::size_t trace_capacity) {
  const std::vector<Id> ids = ids_homonymous(c.n, c.distinct, c.seed);
  const auto crashes =
      c.crash_k > 0 ? crashes_last_k(c.n, c.crash_k, c.crash_at) : crashes_none(c.n);
  FaultInjector inj(c.plan, ids, c.seed ^ 0x9e3779b97f4a7c15ULL);
  ChaosOutcome out;

  switch (c.stack) {
    case StackKind::kFig6: {
      // The monitor judges against construction-time ground truth, so it is
      // only attached when the plan injects no crashes of its own (planned
      // crash_k crashes are known in advance; injected ones are not).
      std::optional<obs::OnlineMonitor> mon;
      if (!c.plan.has_crashes()) {
        obs::MonitorConfig mc;
        mc.gt = ground_truth_of(ids, crashes);
        mc.watch_from = c.run_for - 400;
        mon.emplace(std::move(mc));
      }
      Fig6Params p;
      p.ids = ids;
      p.crashes = crashes;
      p.net = hps_net(c, /*lossy=*/true);
      p.seed = c.seed;
      p.run_for = c.run_for;
      p.stable_window = 400;
      p.trace_capacity = trace_capacity;
      // Monitor first: it sees the change that triggers a crash before the
      // crash lands.
      if (mon) p.observers.push_back(&*mon);
      p.observers.push_back(&inj);
      Fig6Result res = run_fig6(p);
      if (!res.ohp_check) out.violations.push_back("ohp: " + res.ohp_check.detail);
      if (!res.homega_check) out.violations.push_back("homega: " + res.homega_check.detail);
      if (mon) add_monitor_violations(*mon, out.violations);
      out.trace_events = std::move(res.trace_events);
      out.trace_dropped = res.trace_dropped;
      break;
    }
    case StackKind::kFig8: {
      Fig8FullStackParams p;
      p.ids = ids;
      p.t_known = (c.n - 1) / 2;
      p.crashes = crashes;
      p.net = hps_net(c, /*lossy=*/false);
      p.seed = c.seed;
      p.max_time = c.max_time;
      p.trace_capacity = trace_capacity;
      std::optional<net::ReliableLinkEmulator> rel;
      p.observers = reliable_observers(c, inj, rel);
      ConsensusRunResult res = run_fig8_full_stack(p);
      if (!res.check) out.violations.push_back("consensus: " + res.check.detail);
      if (!res.all_correct_decided) {
        out.violations.push_back("liveness: not all correct processes decided by t=" +
                                 std::to_string(res.end_time));
      }
      out.trace_events = std::move(res.trace_events);
      out.trace_dropped = res.trace_dropped;
      break;
    }
    case StackKind::kFig9: {
      // watch_from is pushed past any horizon: under an arbitrary crash
      // schedule only the ungated safety rule (quorum-disjoint) is
      // meaningful, and it is exactly the one that catches HΣ violations
      // online.
      obs::MonitorConfig mc;
      mc.gt = ground_truth_of(ids, crashes);
      mc.watch_from = kSimTimeMax;
      obs::OnlineMonitor mon(std::move(mc));
      Fig9FullStackParams p;
      p.ids = ids;
      p.crashes = crashes;
      p.delta = c.delta;
      p.seed = c.seed;
      p.max_time = c.max_time;
      p.observers = {&mon, &inj};  // monitor first, as in the fig6 case
      p.check_hsigma_safety = true;
      p.trace_capacity = trace_capacity;
      ConsensusRunResult res = run_fig9_full_stack(p);
      if (!res.check) out.violations.push_back("consensus: " + res.check.detail);
      if (!res.all_correct_decided) {
        out.violations.push_back("liveness: not all correct processes decided by t=" +
                                 std::to_string(res.end_time));
      }
      if (!res.hsigma_safety_check) {
        out.violations.push_back("hsigma-safety: " + res.hsigma_safety_check.detail);
      }
      add_monitor_violations(mon, out.violations);
      out.trace_events = std::move(res.trace_events);
      out.trace_dropped = res.trace_dropped;
      break;
    }
    case StackKind::kSmr: {
      smr::SmrSimParams p;
      p.t = (c.n - 1) / 2;
      p.ids = ids;
      p.crashes = crashes;
      p.full_stack = true;
      p.net = hps_net(c, /*lossy=*/false);
      p.seed = c.seed;
      p.run_for = c.run_for;
      p.max_time = c.max_time;
      p.workload.clients = 4;
      p.trace_capacity = trace_capacity;
      std::optional<net::ReliableLinkEmulator> rel;
      p.observers = reliable_observers(c, inj, rel);
      smr::SmrSimResult res = run_smr_sim(p);
      if (!res.prefix_consistent) {
        out.violations.push_back(
            "smr-prefix: applied hash chains diverge on a common prefix — two replicas "
            "applied different batches at the same slot");
      }
      if (!res.converged) {
        out.violations.push_back("smr-liveness: correct replicas did not converge by t=" +
                                 std::to_string(res.end_time));
      }
      break;
    }
  }

  const InjectorStats st = inj.stats();
  out.injected_crashes = st.crashes_injected;
  out.copies_dropped = st.copies_dropped;
  out.ok = out.violations.empty();
  return out;
}

// ------------------------------------------------------------ generators

namespace {

LinkSelector random_selector(Rng& rng, std::size_t n) {
  LinkSelector sel;
  if (rng.chance(0.5)) sel.src.push_back(rng.index(n));
  if (rng.chance(0.5)) sel.dst.push_back(rng.index(n));
  return sel;
}

FaultClause random_link_clause(Rng& rng, const ChaosCase& c, std::vector<ClauseKind> pool) {
  FaultClause cl;
  cl.kind = pool[rng.index(pool.size())];
  cl.from = rng.uniform(0, c.gst / 2);
  cl.until = cl.from + 1 + rng.uniform(0, c.gst - cl.from - 1);
  cl.links = random_selector(rng, c.n);
  switch (cl.kind) {
    case ClauseKind::kLoss: cl.prob = 0.3 + 0.7 * rng.uniform01(); break;
    case ClauseKind::kDelay: cl.delay = 1 + rng.uniform(0, 3 * c.delta); break;
    case ClauseKind::kReorder: cl.delay = 1 + rng.uniform(0, 2 * c.delta); break;
    case ClauseKind::kDuplicate:
      cl.prob = 0.3 + 0.7 * rng.uniform01();
      cl.count = 1 + rng.index(2);
      cl.delay = 1 + rng.uniform(0, c.delta);
      break;
    default: break;
  }
  return cl;
}

}  // namespace

ChaosCase random_admissible_case(Rng& rng, StackKind stack) {
  for (int attempt = 0; attempt < 100; ++attempt) {
    ChaosCase c;
    c.stack = stack;
    c.n = 4 + rng.index(4);  // 4..7
    c.distinct = 2 + rng.index(c.n - 1);
    c.seed = 1 + static_cast<std::uint64_t>(rng.uniform(0, 1'000'000));
    c.delta = 2 + rng.uniform(0, 3);
    const bool load_window = stack == StackKind::kFig6 || stack == StackKind::kSmr;
    const SimTime crash_horizon = load_window ? c.run_for / 2 : c.max_time / 4;
    std::size_t crash_budget;  // crashes left to hand out
    std::vector<ClauseKind> link_pool;
    if (stack == StackKind::kFig9) {
      crash_budget = c.n - 2;
    } else {
      c.gst = 100 + rng.uniform(0, 200);
      crash_budget = stack == StackKind::kFig6 ? c.n - 2 : (c.n - 1) / 2;
      link_pool = {ClauseKind::kDelay, ClauseKind::kReorder};
      if (stack == StackKind::kFig6) {
        link_pool.push_back(ClauseKind::kPartition);
        link_pool.push_back(ClauseKind::kLoss);
        link_pool.push_back(ClauseKind::kDuplicate);
      } else if (rng.chance(0.5)) {
        // Half the fig8/smr sweep runs behind the ARQ emulator, where loss
        // and duplication join the envelope (the admissibility rules admit
        // them only when c.reliable is set).
        c.reliable = true;
        link_pool.push_back(ClauseKind::kLoss);
        link_pool.push_back(ClauseKind::kDuplicate);
      }
    }
    if (rng.chance(0.4) && crash_budget > 0) {
      c.crash_k = 1 + rng.index(std::min<std::size_t>(crash_budget, 2));
      c.crash_at = 1 + rng.uniform(0, crash_horizon - 1);
      crash_budget -= c.crash_k;
    }
    const std::size_t n_clauses = rng.index(4);  // 0..3
    for (std::size_t k = 0; k < n_clauses; ++k) {
      const bool want_crash = crash_budget > 0 && rng.chance(0.35);
      if (want_crash) {
        FaultClause cl;
        if (stack == StackKind::kFig9 && rng.chance(0.3)) {
          cl.kind = ClauseKind::kCrashOnQuorum;
        } else if (rng.chance(0.5)) {
          cl.kind = ClauseKind::kCrashOnLeaderChange;
        } else {
          cl.kind = ClauseKind::kCrashAt;
        }
        if (cl.kind == ClauseKind::kCrashAt) {
          cl.proc = rng.index(c.n);
          cl.at = 1 + rng.uniform(0, crash_horizon - 1);
          crash_budget -= 1;
        } else {
          cl.count = 1;
          cl.until = load_window ? 1 + rng.uniform(0, c.run_for / 2 - 1) : c.max_time / 2;
          crash_budget -= 1;
        }
        c.plan.clauses.push_back(cl);
      } else if (!link_pool.empty()) {
        c.plan.clauses.push_back(random_link_clause(rng, c, link_pool));
      }
    }
    if (admissible(c)) return c;
  }
  throw std::logic_error("random_admissible_case: generator failed to satisfy the envelope");
}

ChaosCase violation_demo_case() {
  ChaosCase c;
  c.stack = StackKind::kFig9;
  c.n = 5;
  c.distinct = 5;  // unique identifiers 1..5
  c.delta = 3;
  c.max_time = 40'000;
  c.seed = 7;
  // The violation core: a never-healing two-way partition {0,1} | {2,3,4}
  // in a stack whose model forbids link faults. Each camp's Fig. 7 adapter
  // only ever hears its own side, so the two camps mint disjoint quora —
  // an HΣ safety violation the spec checker and the monitor both catch.
  FaultClause a_to_b;
  a_to_b.kind = ClauseKind::kPartition;
  a_to_b.links.src = {0, 1};
  a_to_b.links.dst = {2, 3, 4};
  FaultClause b_to_a;
  b_to_a.kind = ClauseKind::kPartition;
  b_to_a.links.src = {2, 3, 4};
  b_to_a.links.dst = {0, 1};
  c.plan.clauses.push_back(a_to_b);
  c.plan.clauses.push_back(b_to_a);
  // Decoys for the shrinker to strip. They must be clauses this stack
  // *tolerates* — and in the synchronous model that means crash clauses
  // (fig9 withstands any number of crashes), not link clauses (any link
  // shaping violates the known bound and would be a violation core of its
  // own).
  FaultClause decoy_crash;
  decoy_crash.kind = ClauseKind::kCrashAt;
  decoy_crash.proc = 4;
  decoy_crash.at = 5000;
  FaultClause decoy_leader;
  decoy_leader.kind = ClauseKind::kCrashOnLeaderChange;
  decoy_leader.count = 1;
  decoy_leader.until = 10'000;
  FaultClause decoy_quorum;
  decoy_quorum.kind = ClauseKind::kCrashOnQuorum;
  decoy_quorum.count = 1;
  decoy_quorum.until = 10'000;
  c.plan.clauses.push_back(decoy_crash);
  c.plan.clauses.push_back(decoy_leader);
  c.plan.clauses.push_back(decoy_quorum);
  return c;
}

// ---------------------------------------------------------------- repros

obs::Json repro_to_json(const ChaosCase& c, const ChaosOutcome& outcome) {
  obs::Json j = obs::Json::object();
  j["schema"] = "hds-chaos-repro-v1";
  j["case"] = c.to_json();
  obs::Json expect = obs::Json::object();
  expect["violated"] = !outcome.ok;
  obs::Json tags = obs::Json::array();
  for (const std::string& t : outcome.violation_tags()) tags.push_back(t);
  expect["tags"] = std::move(tags);
  j["expect"] = std::move(expect);
  return j;
}

Repro parse_repro(const obs::Json& j) {
  const obs::Json* schema = j.find("schema");
  if (schema == nullptr || schema->str() != "hds-chaos-repro-v1") {
    throw std::invalid_argument("repro: unsupported schema");
  }
  const obs::Json* c = j.find("case");
  if (c == nullptr) throw std::invalid_argument("repro: missing case");
  Repro r;
  r.c = ChaosCase::from_json(*c);
  if (const obs::Json* expect = j.find("expect")) {
    if (const obs::Json* v = expect->find("violated")) r.violated = v->boolean();
    if (const obs::Json* tags = expect->find("tags")) {
      for (const auto& t : tags->items()) r.tags.push_back(t.str());
    }
  }
  return r;
}

ReplayResult replay_repro(const Repro& r, std::size_t trace_capacity) {
  ReplayResult res;
  res.outcome = run_chaos_case(r.c, trace_capacity);
  res.match = (!res.outcome.ok == r.violated) && res.outcome.violation_tags() == r.tags;
  return res;
}

}  // namespace hds::chaos
