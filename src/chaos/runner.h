// Chaos runner: executes a FaultPlan against a named detector/consensus
// stack and validates the run with the spec checkers and the online
// monitor.
//
// A ChaosCase is the full, replayable description of one adversarial run:
// stack, topology (n, distinct identifiers), planned crash schedule,
// synchrony parameters, seed, and the fault plan. `admissible()` defines
// the envelope inside which the paper's properties are *supposed* to hold
// for each stack (e.g. injected link faults must heal by GST in HPS; the
// synchronous Fig. 9 stack admits no link faults at all; crash budgets
// respect each algorithm's resilience). The fuzzer sweeps random admissible
// cases and flags any violation; deliberately inadmissible cases are how
// the demo and the negative tests prove the checkers actually catch
// violations.
//
// Failing cases serialize as `hds-chaos-repro-v1` JSON documents together
// with the violation tags they produced; replaying a repro re-runs the case
// and compares tags (the simulator is deterministic, so a committed repro
// must reproduce exactly).
#pragma once

#include <string>
#include <vector>

#include "chaos/fault_plan.h"
#include "common/rng.h"
#include "common/types.h"
#include "obs/json.h"
#include "sim/tracelog.h"

namespace hds::chaos {

enum class StackKind : std::uint8_t {
  kFig6,  // Fig. 6 detectors alone in HPS (◇HP̄ + HΩ checks)
  kFig8,  // full stack Fig. 6 ▸ Corollary 2 ▸ Fig. 8 in HPS[t < n/2]
  kFig9,  // full stack Fig. 6 + Fig. 7-adapter ▸ Fig. 9, synchronous
  kSmr,   // replicated log over the fig8 stack (lease fast path + per-slot
          // Fig. 8 recovery) serving closed-loop client traffic in HPS
};

[[nodiscard]] const char* stack_name(StackKind s);
[[nodiscard]] StackKind stack_from_name(const std::string& name);

struct ChaosCase {
  StackKind stack = StackKind::kFig6;
  std::size_t n = 6;
  std::size_t distinct = 3;  // identifiers: ids_homonymous(n, distinct, seed)
  std::size_t crash_k = 0;   // planned crashes (last k processes)
  SimTime crash_at = 0;
  SimTime gst = 200;     // HPS stacks
  SimTime delta = 3;     // post-GST bound (HPS) / known bound (fig9)
  SimTime run_for = 5000;     // fig6 horizon
  SimTime max_time = 60'000;  // consensus horizon
  std::uint64_t seed = 1;
  // Fig. 8 only: run the case behind the reliable-delivery emulator
  // (net::ReliableLinkEmulator wraps the fault injector), mirroring a real
  // deployment with the ARQ layer on. Widens the admissible envelope to
  // include pre-GST loss and duplication clauses — the emulator retransmits
  // through loss and suppresses duplicates, restoring the reliable-link
  // (HAS) assumption Fig. 8 needs. Serialized only when true, so existing
  // repro files and their byte-exact fixtures are untouched.
  bool reliable = false;
  FaultPlan plan;

  [[nodiscard]] obs::Json to_json() const;
  static ChaosCase from_json(const obs::Json& j);
  friend bool operator==(const ChaosCase&, const ChaosCase&) = default;
};

struct ChaosOutcome {
  bool ok = true;
  // "tag: detail" per failed property; tag identifies the checker
  // ("ohp", "homega", "consensus", "liveness", "hsigma-safety",
  // "monitor-<rule>").
  std::vector<std::string> violations;
  std::uint64_t injected_crashes = 0;
  std::uint64_t copies_dropped = 0;
  // The run's retained event log (with causal lineage) when the case ran
  // with trace_capacity > 0 — feed obs::causal_chain to explain a finding
  // by its message ancestry — plus the ring's eviction count.
  std::vector<TraceEvent> trace_events;
  std::uint64_t trace_dropped = 0;

  // Sorted, de-duplicated tags (prefix of each violation before ':').
  [[nodiscard]] std::vector<std::string> violation_tags() const;
};

// True when the case stays inside the stack's assumption envelope, i.e.
// every property check is *expected* to pass. See the rules in runner.cpp.
[[nodiscard]] bool admissible(const ChaosCase& c);

// trace_capacity > 0 turns on the simulator's causal trace ring for the run
// and returns the retained events in the outcome. 0 (the fuzzer's sweep
// default) keeps the hot path allocation-free.
ChaosOutcome run_chaos_case(const ChaosCase& c, std::size_t trace_capacity = 0);

// Uniformly random case drawn inside the admissible envelope of `stack`.
ChaosCase random_admissible_case(Rng& rng, StackKind stack);

// Deliberately inadmissible case: a never-healing partition splits the
// synchronous Fig. 9 stack into two camps with disjoint HΣ quora, plus
// decoy clauses for the shrinker to strip. Guaranteed to violate.
ChaosCase violation_demo_case();

// ---- repro files (schema "hds-chaos-repro-v1") ----

struct Repro {
  ChaosCase c;
  bool violated = false;
  std::vector<std::string> tags;  // expected violation tags
};

[[nodiscard]] obs::Json repro_to_json(const ChaosCase& c, const ChaosOutcome& outcome);
[[nodiscard]] Repro parse_repro(const obs::Json& j);

struct ReplayResult {
  bool match = false;  // observed tags == expected tags
  ChaosOutcome outcome;
};

// trace_capacity as in run_chaos_case; tracing never perturbs the schedule,
// so a replay matches its recorded tags with or without it.
ReplayResult replay_repro(const Repro& r, std::size_t trace_capacity = 0);

}  // namespace hds::chaos
