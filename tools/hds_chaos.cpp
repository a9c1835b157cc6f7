// hds_chaos — seeded fault-plan fuzzer, shrinker, and repro replayer.
//
// Modes:
//   --fuzz N          sweep N random *admissible* cases per selected stack.
//                     Every property check must pass inside the envelope;
//                     any violation is a finding: it is shrunk to a minimal
//                     failing case and written as a replayable repro JSON
//                     (schema hds-chaos-repro-v1), and the exit status is 1.
//   --demo-violation PATH
//                     build the deliberately inadmissible demo case (a
//                     never-healing partition against the synchronous
//                     Fig. 9 stack), verify the spec checkers catch it,
//                     shrink it (expect <= 3 clauses), write the repro to
//                     PATH and verify it replays. Exit 0 on success.
//   --replay FILE...  re-run committed repro files; exit 0 iff every one
//                     reproduces its recorded violation tags exactly. Each
//                     replay runs with the causal trace ring on and prints
//                     the message ancestry (obs::causal_chain) of the
//                     violation — or, for a wedged run, of the last
//                     delivery/timer frontier the system was spinning on.
//                     --trace-capacity N sizes the ring (0 disables chains).
//
// Determinism: cases are generated from --seed-base and run on their own
// embedded seeds; the simulator is a pure function of the case, so CI can
// pin seeds and replays are exact.
#include <iostream>
#include <string>
#include <vector>

#include "chaos/runner.h"
#include "chaos/shrink.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "obs/causal.h"
#include "obs/json.h"

namespace {

using hds::Rng;
using hds::chaos::ChaosCase;
using hds::chaos::ChaosOutcome;
using hds::chaos::StackKind;

void usage(std::ostream& os) {
  os << "usage: hds_chaos --fuzz N [--stack all|fig6|fig8|fig9|smr] [--seed-base S]\n"
        "                 [--out PATH] [-j N | --jobs N]\n"
        "-j 0 means one worker per hardware thread. Case k is generated from\n"
        "Rng::derived(seed-base, k), so the explored set and any reported\n"
        "finding are identical for every -j\n"
        "       hds_chaos --demo-violation PATH\n"
        "       hds_chaos --replay [--trace-capacity N] FILE [FILE...]\n"
        "exit status: 0 clean, 1 violation found / replay mismatch, 2 usage error\n";
}

std::vector<StackKind> stacks_of(const std::string& sel) {
  if (sel == "all") return {StackKind::kFig6, StackKind::kFig8, StackKind::kFig9, StackKind::kSmr};
  return {hds::chaos::stack_from_name(sel)};
}

std::string join(const std::vector<std::string>& v, const char* sep) {
  std::string out;
  for (const std::string& s : v) {
    if (!out.empty()) out += sep;
    out += s;
  }
  return out;
}

int run_fuzz(std::size_t budget, const std::string& stack_sel, std::uint64_t seed_base,
             const std::string& out_path, std::size_t jobs) {
  const std::vector<StackKind> stacks = stacks_of(stack_sel);
  const std::size_t tasks = budget * stacks.size();

  // Task t covers case t/|stacks| of stack t%|stacks|, generated from
  // Rng::derived(seed_base, t): every task is a pure function of
  // (seed_base, t), so the explored set — and any finding — is identical
  // for every -j and every thread interleaving. All tasks run to completion
  // and the lowest-index violation is reported, which keeps the selected
  // repro deterministic too.
  struct TaskResult {
    bool ok = true;
    ChaosCase c;
    std::vector<std::string> violations;
  };
  const std::vector<TaskResult> results =
      hds::exp::run_collect(tasks, jobs, [&](std::size_t t) {
        TaskResult r;
        Rng rng = Rng::derived(seed_base, t);
        r.c = hds::chaos::random_admissible_case(rng, stacks[t % stacks.size()]);
        const ChaosOutcome out = hds::chaos::run_chaos_case(r.c);
        r.ok = out.ok;
        r.violations = out.violations;
        return r;
      });

  for (std::size_t t = 0; t < results.size(); ++t) {
    const TaskResult& r = results[t];
    if (r.ok) continue;
    std::cerr << "VIOLATION in admissible case (stack=" << hds::chaos::stack_name(r.c.stack)
              << ", case " << t + 1 << "):\n";
    for (const std::string& v : r.violations) std::cerr << "  " << v << "\n";
    std::cerr << "shrinking...\n";
    const hds::chaos::ShrinkResult sh = hds::chaos::shrink_case(r.c);
    std::cerr << "shrunk to " << sh.reduced.plan.clauses.size() << " clause(s) in " << sh.runs
              << " runs; tags: " << join(sh.outcome.violation_tags(), ", ") << "\n";
    const std::string path = out_path.empty() ? "chaos_repro.json" : out_path;
    hds::obs::write_text_file(path,
                              hds::chaos::repro_to_json(sh.reduced, sh.outcome).dump(2) + "\n");
    std::cerr << "repro written to " << path << "\n";
    return 1;
  }
  std::cout << "fuzz: " << tasks << " admissible case(s) ran clean (stacks=" << stack_sel
            << ", seed-base=" << seed_base << ", jobs=" << jobs << ")\n";
  return 0;
}

int run_demo(const std::string& out_path) {
  const ChaosCase demo = hds::chaos::violation_demo_case();
  const ChaosOutcome out = hds::chaos::run_chaos_case(demo);
  if (out.ok) {
    std::cerr << "demo-violation: the demo case unexpectedly passed every check\n";
    return 1;
  }
  std::cout << "demo violation caught (" << out.violations.size() << " violation(s); tags: "
            << join(out.violation_tags(), ", ") << ")\n";
  const hds::chaos::ShrinkResult sh = hds::chaos::shrink_case(demo);
  std::cout << "shrunk " << demo.plan.clauses.size() << " -> " << sh.reduced.plan.clauses.size()
            << " clause(s) in " << sh.runs << " runs\n";
  if (sh.reduced.plan.clauses.size() > 3) {
    std::cerr << "demo-violation: shrinker left " << sh.reduced.plan.clauses.size()
              << " clauses (expected <= 3)\n";
    return 1;
  }
  hds::obs::write_text_file(out_path, hds::chaos::repro_to_json(sh.reduced, sh.outcome).dump(2) + "\n");
  // Round-trip: the written repro must replay to the same tags.
  const hds::chaos::Repro r =
      hds::chaos::parse_repro(hds::obs::load_json_file(out_path));
  const hds::chaos::ReplayResult rep = hds::chaos::replay_repro(r);
  if (!rep.match) {
    std::cerr << "demo-violation: written repro does not replay deterministically\n";
    return 1;
  }
  std::cout << "repro written to " << out_path << " and verified by replay\n";
  return 0;
}

// The causal explanation of a replayed violation: walk the lineage graph
// back from the monitor violation (or, absent one, from the last
// delivery/timer event — for a wedged run that is the quorum wait the
// system was spinning on) and print the message ancestry, indented under
// the replay line.
void print_causal_chain(const hds::chaos::ChaosOutcome& out, std::ostream& os) {
  const std::uint64_t target = hds::obs::causal_chain_target(out.trace_events);
  if (target == 0) return;
  const std::vector<hds::TraceEvent> chain = hds::obs::causal_chain(out.trace_events, target);
  if (chain.empty()) return;
  os << "  causal chain (" << chain.size() << " link(s)";
  if (out.trace_dropped > 0) os << ", ring dropped " << out.trace_dropped;
  os << "):\n";
  std::string text = hds::obs::format_causal_chain(chain);
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    os << "    " << text.substr(start, end - start) << "\n";
    start = end + 1;
  }
}

int run_replay(const std::vector<std::string>& files, std::size_t trace_capacity) {
  int status = 0;
  for (const std::string& path : files) {
    try {
      const hds::chaos::Repro r =
          hds::chaos::parse_repro(hds::obs::load_json_file(path));
      const hds::chaos::ReplayResult rep = hds::chaos::replay_repro(r, trace_capacity);
      if (rep.match) {
        std::cout << "replay OK  " << path << " (tags: " << join(r.tags, ", ") << ")\n";
        print_causal_chain(rep.outcome, std::cout);
      } else {
        std::cerr << "replay MISMATCH " << path << ": expected tags [" << join(r.tags, ", ")
                  << "], got [" << join(rep.outcome.violation_tags(), ", ") << "]\n";
        print_causal_chain(rep.outcome, std::cerr);
        status = 1;
      }
    } catch (const std::exception& e) {
      std::cerr << "replay ERROR " << path << ": " << e.what() << "\n";
      status = 1;
    }
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  std::size_t fuzz = 0;
  std::size_t jobs = 1;
  std::string stack_sel = "all";
  std::uint64_t seed_base = 1;
  std::string out_path;
  std::string demo_path;
  std::vector<std::string> replay_files;
  bool replay_mode = false;
  std::size_t trace_capacity = std::size_t{1} << 16;

  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& flag = args[i];
      auto next = [&]() -> const std::string& {
        if (i + 1 >= args.size()) throw std::invalid_argument(flag + " needs a value");
        return args[++i];
      };
      if (flag == "--fuzz") {
        fuzz = std::stoul(next());
      } else if (flag == "--stack") {
        stack_sel = next();
      } else if (flag == "--seed-base") {
        seed_base = std::stoull(next());
      } else if (flag == "--out") {
        out_path = next();
      } else if (flag == "-j" || flag == "--jobs") {
        jobs = std::stoul(next());
        if (jobs == 0) jobs = hds::exp::default_jobs();
      } else if (flag == "--demo-violation") {
        demo_path = next();
      } else if (flag == "--replay") {
        replay_mode = true;
      } else if (flag == "--trace-capacity") {
        trace_capacity = std::stoul(next());
      } else if (flag == "--help" || flag == "-h") {
        usage(std::cout);
        return 0;
      } else if (replay_mode) {
        replay_files.push_back(flag);
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (replay_mode) {
      if (replay_files.empty()) throw std::invalid_argument("--replay needs files");
      return run_replay(replay_files, trace_capacity);
    }
    if (!demo_path.empty()) return run_demo(demo_path);
    if (fuzz > 0) return run_fuzz(fuzz, stack_sel, seed_base, out_path, jobs);
    usage(std::cerr);
    return 2;
  } catch (const std::invalid_argument& e) {
    std::cerr << "hds_chaos: " << e.what() << "\n";
    usage(std::cerr);
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "hds_chaos: " << e.what() << "\n";
    return 1;
  }
}
