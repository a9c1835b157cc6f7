// trace_export — run a seeded consensus stack with observability enabled and
// export the artifacts:
//   - Chrome trace-event JSON (load in chrome://tracing or Perfetto),
//   - the JSONL event stream (jq / pandas),
//   - the metrics-registry snapshot as JSON.
//
// Examples:
//   trace_export --chrome trace.json --metrics metrics.json
//   trace_export --stack fig9 --n 6 --crashes 2 --seed 7 --jsonl events.jsonl
//   trace_export            # chrome JSON on stdout
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "consensus/harness.h"
#include "obs/metrics.h"
#include "obs/trace_export.h"

namespace {

struct Options {
  std::string stack = "fig8";
  std::size_t n = 5;
  std::size_t crashes = 1;
  std::uint64_t seed = 1;
  std::size_t trace_capacity = 20000;
  hds::SimTime max_time = 500'000;
  std::string chrome_path;   // empty + no other sink => stdout
  std::string jsonl_path;
  std::string metrics_path;
  std::string label;
};

[[noreturn]] void usage_and_exit(int code) {
  std::cerr <<
      "usage: trace_export [options]\n"
      "  --stack fig8|fig9      consensus stack to run (default fig8)\n"
      "  --n N                  processes (default 5)\n"
      "  --crashes K            crash the last K processes (default 1)\n"
      "  --seed S               rng seed (default 1)\n"
      "  --trace-capacity C     event-ring capacity (default 20000)\n"
      "  --max-time T           simulated-time budget (default 500000)\n"
      "  --chrome PATH          write Chrome trace JSON here\n"
      "  --jsonl PATH           write the JSONL event stream here\n"
      "  --metrics PATH         write the metrics-registry JSON here\n"
      "  --label STR            run label embedded in the exports\n"
      "With no output flag, the Chrome trace JSON goes to stdout.\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options o;
  using Set = std::function<void(const std::string&)>;
  const std::map<std::string, Set> flags = {
      {"--stack", [&](const std::string& v) { o.stack = v; }},
      {"--n", [&](const std::string& v) { o.n = std::stoul(v); }},
      {"--crashes", [&](const std::string& v) { o.crashes = std::stoul(v); }},
      {"--seed", [&](const std::string& v) { o.seed = std::stoull(v); }},
      {"--trace-capacity", [&](const std::string& v) { o.trace_capacity = std::stoul(v); }},
      {"--max-time", [&](const std::string& v) { o.max_time = std::stoll(v); }},
      {"--chrome", [&](const std::string& v) { o.chrome_path = v; }},
      {"--jsonl", [&](const std::string& v) { o.jsonl_path = v; }},
      {"--metrics", [&](const std::string& v) { o.metrics_path = v; }},
      {"--label", [&](const std::string& v) { o.label = v; }},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") usage_and_exit(0);
    const auto it = flags.find(a);
    if (it == flags.end()) {
      std::cerr << "trace_export: unknown option " << a << "\n";
      usage_and_exit(2);
    }
    if (i + 1 >= argc) {
      std::cerr << "trace_export: " << a << " needs a value\n";
      usage_and_exit(2);
    }
    try {
      it->second(argv[++i]);
    } catch (const std::logic_error&) {  // std::stoul and friends: not a number
      std::cerr << "trace_export: bad value for " << a << "\n";
      usage_and_exit(2);
    }
  }
  if (o.n < 3) {
    std::cerr << "trace_export: need --n >= 3\n";
    std::exit(2);
  }
  if (o.crashes * 2 >= o.n) {
    std::cerr << "trace_export: need a correct majority (--crashes < n/2)\n";
    std::exit(2);
  }
  if (o.stack != "fig8" && o.stack != "fig9") {
    std::cerr << "trace_export: --stack must be fig8 or fig9\n";
    std::exit(2);
  }
  return o;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "trace_export: cannot open " << path << "\n";
    std::exit(1);
  }
  out << body;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  hds::obs::MetricsRegistry metrics;
  const std::vector<hds::Id> ids = hds::ids_unique(o.n);
  auto crashes = o.crashes > 0 ? hds::crashes_last_k(o.n, o.crashes, 60)
                               : hds::crashes_none(o.n);

  hds::ConsensusRunResult res;
  if (o.stack == "fig8") {
    hds::Fig8FullStackParams p;
    p.ids = ids;
    p.t_known = o.crashes > 0 ? o.crashes : 1;
    p.crashes = crashes;
    p.seed = o.seed;
    p.max_time = o.max_time;
    p.trace_capacity = o.trace_capacity;
    p.metrics = &metrics;
    res = hds::run_fig8_full_stack(p);
  } else {
    hds::Fig9FullStackParams p;
    p.ids = ids;
    p.crashes = crashes;
    p.seed = o.seed;
    p.max_time = o.max_time;
    p.trace_capacity = o.trace_capacity;
    p.metrics = &metrics;
    res = hds::run_fig9_full_stack(p);
  }

  hds::obs::TraceExportMeta meta;
  meta.ids = ids;
  meta.dropped = res.trace_dropped;
  std::ostringstream label;
  label << (o.label.empty() ? o.stack + " full stack" : o.label) << " n=" << o.n
        << " crashes=" << o.crashes << " seed=" << o.seed
        << " decided=" << (res.all_correct_decided ? "yes" : "no");
  meta.label = label.str();

  const bool any_file = !o.chrome_path.empty() || !o.jsonl_path.empty() || !o.metrics_path.empty();
  if (!o.chrome_path.empty()) {
    write_file(o.chrome_path, hds::obs::chrome_trace_json(res.trace_events, meta));
  }
  if (!o.jsonl_path.empty()) {
    write_file(o.jsonl_path, hds::obs::trace_jsonl(res.trace_events, meta));
  }
  if (!o.metrics_path.empty()) {
    write_file(o.metrics_path, metrics.to_json());
  }
  if (!any_file) {
    std::cout << hds::obs::chrome_trace_json(res.trace_events, meta);
  }

  std::cerr << "trace_export: " << meta.label << "; events=" << res.trace_events.size()
            << " dropped=" << res.trace_dropped << " series=" << metrics.series_count() << "\n";
  return res.all_correct_decided ? 0 : 1;
}
