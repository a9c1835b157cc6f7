// hds_explore — command-line experiment runner over the whole library.
//
// Pick a stack, a homonymy pattern, a crash schedule and synchrony
// parameters; the tool runs the experiment across seeds and prints one row
// per run plus an aggregate line. All consensus properties are checked on
// every run — a row only counts as ok when Validity+Agreement+Termination
// were machine-verified.
//
//   ./build/examples/hds_explore --stack fig8-oracle --n 7 --distinct 3
//                                 --crashes 3 --stabilize 80 --runs 5
//   ./build/examples/hds_explore --stack fig8-full --n 5 --gst 200 --delta 4
//   ./build/examples/hds_explore --stack fig9-full --n 6 --crashes 4
//   ./build/examples/hds_explore --stack fig9-anon-ap --n 6 --crashes 4
//   ./build/examples/hds_explore --list
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "consensus/harness.h"

namespace {

using namespace hds;

struct Cli {
  std::string stack = "fig8-oracle";
  std::size_t n = 6;
  std::size_t distinct = 0;  // 0 = n/2 rounded up
  std::size_t crashes = 0;
  SimTime crash_at = 25;
  SimTime stabilize = 60;
  SimTime gst = 100;
  SimTime delta = 3;
  double loss = 0.0;
  std::uint64_t seed = 1;
  int runs = 3;
  std::optional<std::size_t> alpha;
  std::size_t trace = 0;  // > 0: print the first N event-log lines per run
};

void usage() {
  std::puts(
      "hds_explore --stack <name> [options]\n"
      "  stacks: fig8-oracle   Fig.8 over an HOmega oracle (HAS[t<n/2, HOmega])\n"
      "          fig9-oracle   Fig.9 over HOmega+HSigma oracles (any #crashes)\n"
      "          fig8-full     Fig.6 detector under Fig.8, partial synchrony\n"
      "          fig9-full     Fig.6+Fig.7 detectors under Fig.9, synchrony\n"
      "          fig9-anon-ap  anonymous AP-derived stack under Fig.9\n"
      "          fig9-anon-aomega  AAS[AOmega, HSigma] variant over oracles\n"
      "  options: --n N --distinct L --crashes K --crash-at T --stabilize T\n"
      "           --gst T --delta D --loss P --seed S --runs R --alpha A\n"
      "           --trace N   (full stacks only: print first N event-log lines)");
}

bool parse(int argc, char** argv, Cli& cli) {
  using Set = std::function<void(const std::string&)>;
  const std::map<std::string, Set> flags = {
      {"--stack", [&](const std::string& v) { cli.stack = v; }},
      {"--n", [&](const std::string& v) { cli.n = std::stoul(v); }},
      {"--distinct", [&](const std::string& v) { cli.distinct = std::stoul(v); }},
      {"--crashes", [&](const std::string& v) { cli.crashes = std::stoul(v); }},
      {"--crash-at", [&](const std::string& v) { cli.crash_at = std::stoll(v); }},
      {"--stabilize", [&](const std::string& v) { cli.stabilize = std::stoll(v); }},
      {"--gst", [&](const std::string& v) { cli.gst = std::stoll(v); }},
      {"--delta", [&](const std::string& v) { cli.delta = std::stoll(v); }},
      {"--loss", [&](const std::string& v) { cli.loss = std::stod(v); }},
      {"--seed", [&](const std::string& v) { cli.seed = std::stoull(v); }},
      {"--runs", [&](const std::string& v) { cli.runs = std::stoi(v); }},
      {"--alpha", [&](const std::string& v) { cli.alpha = std::stoul(v); }},
      {"--trace", [&](const std::string& v) { cli.trace = std::stoul(v); }},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list" || a == "--help") {
      usage();
      std::exit(0);
    }
    const auto it = flags.find(a);
    if (it == flags.end()) {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return false;
    }
    try {
      if (i + 1 >= argc) throw std::invalid_argument(a);
      it->second(argv[++i]);
    } catch (const std::logic_error&) {  // missing, or std::stoul and friends: not a number
      std::fprintf(stderr, "bad value for %s\n", a.c_str());
      return false;
    }
  }
  if (cli.n < 2) {
    std::fprintf(stderr, "--n must be >= 2\n");
    return false;
  }
  if (cli.crashes >= cli.n) {
    std::fprintf(stderr, "--crashes must leave a survivor\n");
    return false;
  }
  if (cli.distinct == 0) cli.distinct = (cli.n + 1) / 2;
  return true;
}

ConsensusRunResult dispatch(const Cli& cli, std::uint64_t seed) {
  const auto ids = cli.stack == "fig9-anon-ap" ? ids_anonymous(cli.n)
                                               : ids_homonymous(cli.n, cli.distinct, seed + 5);
  auto crashes =
      cli.crashes > 0 ? crashes_last_k(cli.n, cli.crashes, cli.crash_at, 9) : crashes_none(cli.n);

  if (cli.stack == "fig8-oracle") {
    Fig8OracleParams p;
    p.ids = ids;
    p.t_known = cli.alpha ? 0 : std::max<std::size_t>(cli.crashes, 1);
    if (!cli.alpha && 2 * p.t_known >= cli.n) {
      throw std::runtime_error("fig8 needs crashes < n/2 (or --alpha)");
    }
    p.alpha = cli.alpha;
    p.crashes = crashes;
    p.fd_stabilize = cli.stabilize;
    p.seed = seed;
    return run_fig8_with_oracle(p);
  }
  if (cli.stack == "fig9-oracle") {
    Fig9OracleParams p;
    p.ids = ids;
    p.crashes = crashes;
    p.fd1_stabilize = cli.stabilize;
    p.fd2_stabilize = cli.stabilize + 30;
    p.seed = seed;
    return run_fig9_with_oracle(p);
  }
  if (cli.stack == "fig8-full") {
    Fig8FullStackParams p;
    p.ids = ids;
    p.t_known = std::max<std::size_t>(cli.crashes, 1);
    if (2 * p.t_known >= cli.n) throw std::runtime_error("fig8 needs crashes < n/2");
    p.crashes = crashes;
    p.net = {.gst = cli.gst,
             .delta = cli.delta,
             .pre_gst_loss = cli.loss,
             .pre_gst_max_delay = 40};
    p.seed = seed;
    p.trace_capacity = cli.trace > 0 ? 200'000 : 0;
    return run_fig8_full_stack(p);
  }
  if (cli.stack == "fig9-anon-aomega") {
    Fig9AnonOmegaParams p;
    p.n = cli.n;
    p.crashes = crashes;
    p.aomega_stabilize = cli.stabilize;
    p.fd2_stabilize = cli.stabilize + 30;
    p.seed = seed;
    return run_fig9_anon_aomega(p);
  }
  if (cli.stack == "fig9-full" || cli.stack == "fig9-anon-ap") {
    Fig9FullStackParams p;
    p.ids = ids;
    p.crashes = crashes;
    p.delta = cli.delta;
    p.seed = seed;
    p.anonymous_ap_stack = cli.stack == "fig9-anon-ap";
    p.trace_capacity = cli.trace > 0 ? 200'000 : 0;
    return run_fig9_full_stack(p);
  }
  throw std::runtime_error("unknown stack: " + cli.stack);
}

}  // namespace

int main(int argc, char** argv) {
  Cli cli;
  if (!parse(argc, argv, cli)) {
    usage();
    return 2;
  }
  std::printf("stack=%s n=%zu distinct=%zu crashes=%zu runs=%d\n", cli.stack.c_str(), cli.n,
              cli.distinct, cli.crashes, cli.runs);
  std::printf("%-6s %-4s %-13s %-7s %-10s %-11s\n", "seed", "ok", "decision_t", "rounds",
              "sub_rounds", "broadcasts");
  int ok_runs = 0;
  double sum_t = 0, sum_rounds = 0;
  for (int k = 0; k < cli.runs; ++k) {
    const std::uint64_t seed = cli.seed + static_cast<std::uint64_t>(k);
    ConsensusRunResult r;
    try {
      r = dispatch(cli, seed);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    const bool ok = r.check.ok;
    std::printf("%-6llu %-4s %-13lld %-7lld %-10lld %-11llu%s%s\n",
                static_cast<unsigned long long>(seed), ok ? "yes" : "NO",
                static_cast<long long>(r.last_decision_time),
                static_cast<long long>(r.max_round), static_cast<long long>(r.max_sub_round),
                static_cast<unsigned long long>(r.broadcasts), ok ? "" : "  <- ",
                ok ? "" : r.check.detail.c_str());
    if (ok) {
      ++ok_runs;
      sum_t += static_cast<double>(r.last_decision_time);
      sum_rounds += static_cast<double>(r.max_round);
    }
    if (cli.trace > 0 && !r.trace_head.empty()) {
      std::printf("--- event log (seed %llu) ---\n", static_cast<unsigned long long>(seed));
      std::size_t lines = 0;
      for (const char* c = r.trace_head.c_str(); *c && lines < cli.trace; ++c) {
        std::putchar(*c);
        if (*c == '\n') ++lines;
      }
      std::printf("--- end event log ---\n");
    }
  }
  if (ok_runs > 0) {
    std::printf("aggregate: %d/%d ok, mean decision_t=%.1f, mean rounds=%.1f\n", ok_runs,
                cli.runs, sum_t / ok_runs, sum_rounds / ok_runs);
  } else {
    std::printf("aggregate: 0/%d ok\n", cli.runs);
  }
  return ok_runs == cli.runs ? 0 : 1;
}
