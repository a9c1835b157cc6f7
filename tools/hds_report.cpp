// hds_report — regression-aware failure-detector QoS report.
//
// Runs a seeded sweep over homonymy degrees (distinct identifiers ell among
// n processes) and, per sweep point, measures three detector families:
//   - Fig. 6 (◇HP̄ + Corollary-2 HΩ) under partial synchrony with staggered
//     crashes: detection time per crashed label, mistake intervals, leader
//     flaps/settle — with an online monitor watching the post-GST window;
//   - Fig. 7 (HΣ) in the lock-step synchronous system: quorum intersection
//     margins, liveness waits;
//   - the chosen consensus stack (--stack fig8: Fig. 6 ▸ Fig. 8 in HPS;
//     --stack fig9: Fig. 6 + Fig. 7-adapter ▸ Fig. 9 under a known bound);
//   - the replicated log (src/smr) on the HΩ-oracle substrate: closed-loop
//     client throughput, commit-latency p50/p99 and the appends-per-batch
//     fast-path ratio, all seed-deterministic and baseline-compared like
//     the detector metrics.
//
// Everything is deterministic in (n, t, delta, seed, ell), so measured
// scalars are exactly reproducible and a committed baseline
// (BENCH_qos_baseline.json) can be compared with a small tolerance that
// only forgives intentional re-baselining slack, not noise. A regression
// makes the exit status 2, which is what CI keys off.
//
// Outputs: a JSON document (schema hds-qos-report-v1), a Markdown summary
// mapping EXPERIMENTS.md claims to measured QoS numbers, and one metrics
// snapshot per sweep point.
#include <algorithm>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "consensus/harness.h"
#include "exp/runner.h"
#include "obs/json.h"
#include "obs/monitor.h"
#include "obs/qos.h"
#include "smr/harness.h"

namespace {

using hds::obs::Json;

constexpr const char* kReportSchema = "hds-qos-report-v1";
constexpr const char* kBaselineSchema = "hds-qos-baseline-v1";
// Absolute slack on top of the relative tolerance: a 1-tick jitter on a
// 2-tick metric is not a regression.
constexpr double kAbsSlack = 2.0;

struct Options {
  std::string stack = "fig8";  // fig8 | fig9
  std::size_t n = 5;
  std::size_t t = 0;  // 0: derive (n-1)/2
  hds::SimTime delta = 3;
  std::uint64_t seed = 1;
  std::vector<std::size_t> ells;  // empty: {1, ceil(n/2), n}
  std::string out_dir = ".";
  std::string json_path;  // default: <out_dir>/qos_report.json
  std::string md_path;    // default: <out_dir>/qos_report.md
  std::string baseline = "BENCH_qos_baseline.json";
  bool write_baseline = false;
  double tolerance = 0.25;
  std::size_t jobs = 1;    // sweep-point parallelism; 0 = hardware concurrency
  std::size_t shards = 1;  // per-run engine shards (consensus-stack runs only)
};

void usage(std::ostream& os) {
  os << "usage: hds_report [--stack fig8|fig9] [--n N] [--t T] [--delta D]\n"
        "                  [--seed S] [--ell L1,L2,...] [--out-dir DIR]\n"
        "                  [--json PATH] [--md PATH] [--baseline PATH]\n"
        "                  [--write-baseline] [--tolerance R] [-j N | --jobs N]\n"
        "                  [--shards K]\n"
        "-j 0 means one worker per hardware thread; results are identical\n"
        "for every -j (each sweep point is an isolated, seed-derived run)\n"
        "--shards K runs the consensus-stack point on K engine shards —\n"
        "bit-identical output for every K (runs with observers stay at 1)\n"
        "exit status: 0 clean, 1 usage/run error, 2 QoS regression\n";
}

std::vector<std::size_t> parse_ells(const std::string& csv) {
  std::vector<std::size_t> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stoul(tok));
  }
  return out;
}

bool parse_args(int argc, char** argv, Options& o) {
  using Set = std::function<void(const std::string&)>;
  const Set jobs = [&](const std::string& v) {
    o.jobs = std::stoul(v);
    if (o.jobs == 0) o.jobs = hds::exp::default_jobs();
  };
  const std::map<std::string, Set> flags = {
      {"--stack", [&](const std::string& v) { o.stack = v; }},
      {"--n", [&](const std::string& v) { o.n = std::stoul(v); }},
      {"--t", [&](const std::string& v) { o.t = std::stoul(v); }},
      {"--delta", [&](const std::string& v) { o.delta = std::stoll(v); }},
      {"--seed", [&](const std::string& v) { o.seed = std::stoull(v); }},
      {"--ell", [&](const std::string& v) { o.ells = parse_ells(v); }},
      {"--out-dir", [&](const std::string& v) { o.out_dir = v; }},
      {"--json", [&](const std::string& v) { o.json_path = v; }},
      {"--md", [&](const std::string& v) { o.md_path = v; }},
      {"--baseline", [&](const std::string& v) { o.baseline = v; }},
      {"--tolerance", [&](const std::string& v) { o.tolerance = std::stod(v); }},
      {"-j", jobs},
      {"--jobs", jobs},
      {"--shards",
       [&](const std::string& v) { o.shards = std::max<std::size_t>(std::stoul(v), 1); }},
  };
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    std::string val;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      val = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    }
    if (flag == "--help" || flag == "-h") {
      usage(std::cout);
      std::exit(0);
    }
    if (flag == "--write-baseline") {
      o.write_baseline = true;
      continue;
    }
    const auto it = flags.find(flag);
    if (it == flags.end()) {
      std::cerr << "hds_report: unknown flag " << flag << '\n';
      return false;
    }
    if (val.empty() && i + 1 < args.size()) val = args[++i];
    try {
      if (val.empty()) throw std::invalid_argument(flag);
      it->second(val);
    } catch (const std::logic_error&) {  // missing, or std::stoul and friends: not a number
      std::cerr << "hds_report: bad value for " << flag << '\n';
      return false;
    }
  }
  if (o.stack != "fig8" && o.stack != "fig9") {
    std::cerr << "hds_report: --stack must be fig8 or fig9\n";
    return false;
  }
  if (o.n < 3) {
    std::cerr << "hds_report: need --n >= 3\n";
    return false;
  }
  if (o.t == 0) o.t = (o.n - 1) / 2;
  if (o.t >= o.n || (o.stack == "fig8" && 2 * o.t >= o.n)) {
    std::cerr << "hds_report: bad --t for this stack\n";
    return false;
  }
  if (o.ells.empty()) o.ells = {1, (o.n + 1) / 2, o.n};
  for (std::size_t ell : o.ells) {
    if (ell == 0 || ell > o.n) {
      std::cerr << "hds_report: --ell entries must be in [1, n]\n";
      return false;
    }
  }
  if (o.json_path.empty()) o.json_path = o.out_dir + "/qos_report.json";
  if (o.md_path.empty()) o.md_path = o.out_dir + "/qos_report.md";
  return true;
}

// Scalars tracked against the baseline, per sweep point.
using MetricMap = std::map<std::string, double>;

// Metrics where larger is better; everything else regresses upward.
bool higher_is_better(const std::string& name) {
  return name.ends_with("converged") || name.ends_with("quorum_margin_min") ||
         name.ends_with("quora_distinct") || name.ends_with("decided") ||
         name.ends_with("ops_total") || name.ends_with("ops_per_ktick");
}

struct SweepResult {
  std::string key;  // "ell=3"
  std::size_t ell = 0;
  MetricMap metrics;
  Json fig6_qos;
  Json fig7_qos;
  Json stack_qos;
  Json smr;  // replicated-log throughput/latency section
  std::size_t monitor_violations = 0;
  std::size_t monitor_warnings = 0;
  std::map<std::string, std::size_t> monitor_by_rule;
  std::string metrics_json;  // full registry snapshot of this sweep point
  // Causal trace accounting of the consensus-stack run (ring retention vs
  // TraceLog::dropped() evictions). Informational: kept out of the
  // baseline-compared metric map.
  std::size_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
};

SweepResult run_sweep_point(const Options& o, std::size_t ell) {
  SweepResult out;
  out.ell = ell;
  out.key = "ell=" + std::to_string(ell);
  const std::vector<hds::Id> ids =
      ell == o.n ? hds::ids_unique(o.n) : hds::ids_homonymous(o.n, ell, o.seed);
  hds::obs::MetricsRegistry reg;

  // Fig. 6: ◇HP̄ + HΩ under partial synchrony, staggered crashes before GST.
  {
    hds::Fig6Params p;
    p.ids = ids;
    p.crashes = hds::crashes_last_k(o.n, o.t, /*at=*/800, /*stagger=*/50);
    p.net.gst = 1000;
    p.net.delta = o.delta;
    p.net.pre_gst_loss = 0.2;
    p.net.pre_gst_max_delay = 6;
    p.seed = o.seed;
    p.run_for = 4000;
    p.metrics = &reg;
    p.collect_qos = true;
    hds::obs::MonitorConfig mc;
    mc.gt = hds::ground_truth_of(ids, p.crashes);
    mc.watch_from = 3000;  // generous stabilization budget past GST
    mc.metrics = &reg;
    hds::obs::OnlineMonitor monitor(mc);
    p.observers = {&monitor};
    const hds::Fig6Result r = hds::run_fig6(p);
    out.fig6_qos = hds::obs::qos_json(r.qos);
    out.metrics["fig6_detection_max"] = static_cast<double>(r.qos.detection_time_max);
    out.metrics["fig6_detection_mean"] = r.qos.detection_time_mean;
    out.metrics["fig6_undetected"] = static_cast<double>(r.qos.undetected);
    out.metrics["fig6_mistake_intervals"] = static_cast<double>(r.qos.mistake_intervals);
    out.metrics["fig6_mistake_duration_max"] = static_cast<double>(r.qos.mistake_duration_max);
    out.metrics["fig6_leader_flaps"] = static_cast<double>(r.qos.leader_flaps);
    out.metrics["fig6_leader_settle_max"] = static_cast<double>(r.qos.leader_settle_max);
    out.metrics["fig6_converged"] = r.qos.converged ? 1 : 0;
    out.metrics["fig6_stabilization_time"] = static_cast<double>(r.stabilization_time);
    out.monitor_violations += monitor.violation_count();
    out.monitor_warnings += monitor.warning_count();
    for (const auto& [rule, c] : monitor.counts_by_rule()) out.monitor_by_rule[rule] += c;
  }

  // Fig. 7: HΣ in the lock-step synchronous system.
  {
    hds::Fig7Params p;
    p.ids = ids;
    p.crashes = hds::crashes_last_k(o.n, o.t, /*at=*/10, /*stagger=*/2);
    p.steps = 30;
    p.seed = o.seed;
    p.metrics = &reg;
    p.collect_qos = true;
    hds::obs::MonitorConfig mc;
    mc.gt = hds::ground_truth_of(ids, p.crashes);
    // Gated rules stay off (the run ends at watch_from); the ungated quorum
    // safety rules still watch every realized quorum.
    mc.watch_from = static_cast<hds::SimTime>(p.steps);
    mc.metrics = &reg;
    hds::obs::OnlineMonitor monitor(mc);
    p.observers = {&monitor};
    const hds::Fig7Result r = hds::run_fig7(p);
    out.fig7_qos = hds::obs::qos_json(r.qos);
    out.metrics["fig7_quorum_margin_min"] = static_cast<double>(r.qos.quorum_margin_min);
    out.metrics["fig7_quora_distinct"] = static_cast<double>(r.qos.quora_distinct);
    out.metrics["fig7_liveness_wait_max"] = static_cast<double>(r.qos.liveness_wait_max);
    out.monitor_violations += monitor.violation_count();
    out.monitor_warnings += monitor.warning_count();
    for (const auto& [rule, c] : monitor.counts_by_rule()) out.monitor_by_rule[rule] += c;
  }

  // Consensus stack.
  {
    hds::ConsensusRunResult r;
    if (o.stack == "fig8") {
      hds::Fig8FullStackParams p;
      p.ids = ids;
      p.t_known = o.t;
      p.crashes = hds::crashes_last_k(o.n, o.t, /*at=*/300, /*stagger=*/30);
      p.net.gst = 500;
      p.net.delta = o.delta;
      p.net.pre_gst_loss = 0.2;
      p.net.pre_gst_max_delay = 6;
      p.seed = o.seed;
      p.metrics = &reg;
      p.collect_qos = true;
      p.trace_capacity = std::size_t{1} << 14;
      p.shards = o.shards;  // no observers on this run, so it takes effect
      r = hds::run_fig8_full_stack(p);
    } else {
      hds::Fig9FullStackParams p;
      p.ids = ids;
      p.crashes = hds::crashes_last_k(o.n, o.t, /*at=*/60, /*stagger=*/10);
      p.delta = o.delta;
      p.seed = o.seed;
      p.metrics = &reg;
      p.collect_qos = true;
      p.trace_capacity = std::size_t{1} << 14;
      p.shards = o.shards;  // as in the fig8 arm
      r = hds::run_fig9_full_stack(p);
    }
    out.stack_qos = hds::obs::qos_json(r.qos);
    out.trace_events = r.trace_events.size();
    out.trace_dropped = r.trace_dropped;
    out.metrics["cons_decided"] = r.all_correct_decided ? 1 : 0;
    out.metrics["cons_last_decision_time"] = static_cast<double>(r.last_decision_time);
    out.metrics["cons_max_round"] = static_cast<double>(r.max_round);
    out.metrics["cons_broadcasts"] = static_cast<double>(r.broadcasts);
    out.metrics["cons_leader_flaps"] = static_cast<double>(r.qos.leader_flaps);
    out.metrics["cons_quorum_margin_min"] = static_cast<double>(r.qos.quorum_margin_min);
  }

  // Replicated log: the closed-loop workload on the HΩ-oracle substrate,
  // crash-free so the scalars price the lease fast path itself. Everything
  // here is a pure function of (n, t, seed, ell) — exactly reproducible,
  // so it folds into the same baseline comparison as the detector QoS.
  {
    hds::smr::SmrSimParams p;
    p.t = o.t;
    p.ids = ids;
    p.seed = o.seed;
    p.run_for = 4000;
    p.max_time = 16'000;
    p.workload.clients = 16;
    p.metrics = &reg;
    const hds::smr::SmrSimResult r = hds::smr::run_smr_sim(p);
    out.metrics["smr_converged"] = r.converged ? 1 : 0;
    out.metrics["smr_ops_total"] = static_cast<double>(r.ops_total);
    out.metrics["smr_ops_per_ktick"] = r.ops_per_ktick;
    out.metrics["smr_latency_p50"] = r.latency_p50;
    out.metrics["smr_latency_p99"] = r.latency_p99;
    double appends = 0;
    double batches = 0;
    for (const hds::smr::SmrReplicaStats& st : r.replicas) {
      appends += static_cast<double>(st.appends_sent + st.repair_appends_sent);
      batches = std::max(batches, static_cast<double>(st.batches_committed));
    }
    out.metrics["smr_appends_per_batch"] = batches > 0 ? appends / batches : 0;
    Json sm = Json::object();
    sm["converged"] = r.converged;
    sm["prefix_consistent"] = r.prefix_consistent;
    sm["ops_total"] = r.ops_total;
    sm["ops_per_ktick"] = r.ops_per_ktick;
    sm["latency_p50"] = r.latency_p50;
    sm["latency_p99"] = r.latency_p99;
    sm["appends_per_batch"] = out.metrics["smr_appends_per_batch"];
    sm["broadcasts"] = r.broadcasts;
    sm["end_time"] = r.end_time;
    out.smr = std::move(sm);
  }

  out.metrics["monitor_violations"] = static_cast<double>(out.monitor_violations);
  out.metrics["monitor_warnings"] = static_cast<double>(out.monitor_warnings);
  out.metrics_json = reg.to_json();
  return out;
}

struct Regression {
  std::string config;
  std::string metric;
  double baseline = 0;
  double measured = 0;
  std::string kind;  // "worse" | "sign"
};

void compare_against_baseline(const Json& baseline, const Options& o,
                              const std::vector<SweepResult>& sweeps,
                              std::vector<Regression>& regressions,
                              std::vector<std::string>& notes) {
  if (baseline.string_or("schema", "") != kBaselineSchema) {
    notes.push_back("baseline has unexpected schema; comparison skipped");
    return;
  }
  const Json* configs = baseline.find("configs");
  if (configs == nullptr || !configs->is_object()) {
    notes.push_back("baseline has no configs; comparison skipped");
    return;
  }
  for (const SweepResult& s : sweeps) {
    const Json* base_cfg = configs->find(s.key);
    if (base_cfg == nullptr) {
      notes.push_back("baseline has no config " + s.key + "; skipped");
      continue;
    }
    for (const auto& [name, measured] : s.metrics) {
      const Json* bv = base_cfg->find(name);
      if (bv == nullptr || !bv->is_number()) {
        notes.push_back("baseline " + s.key + " lacks metric " + name + "; skipped");
        continue;
      }
      const double b = bv->number();
      // -1 is the "absent / never happened" sentinel on several metrics; a
      // sentinel flip in either direction is a behavioural change, not a
      // magnitude change, so it is always reported.
      if ((b < 0) != (measured < 0)) {
        regressions.push_back(Regression{s.key, name, b, measured, "sign"});
        continue;
      }
      if (b < 0) continue;  // both absent: nothing to compare
      const bool worse = higher_is_better(name)
                             ? measured < b * (1.0 - o.tolerance) - kAbsSlack
                             : measured > b * (1.0 + o.tolerance) + kAbsSlack;
      if (worse) regressions.push_back(Regression{s.key, name, b, measured, "worse"});
    }
  }
}

Json baseline_json(const Options& o, const std::vector<SweepResult>& sweeps) {
  Json out = Json::object();
  out["schema"] = Json(kBaselineSchema);
  out["stack"] = Json(o.stack);
  out["n"] = Json(o.n);
  out["t"] = Json(o.t);
  out["delta"] = Json(o.delta);
  out["seed"] = Json(o.seed);
  Json configs = Json::object();
  for (const SweepResult& s : sweeps) {
    Json m = Json::object();
    for (const auto& [name, v] : s.metrics) m[name] = Json(v);
    configs[s.key] = std::move(m);
  }
  out["configs"] = std::move(configs);
  return out;
}

Json report_json(const Options& o, const std::vector<SweepResult>& sweeps,
                 const std::vector<Regression>& regressions,
                 const std::vector<std::string>& notes, bool baseline_loaded) {
  Json out = Json::object();
  out["schema"] = Json(kReportSchema);
  out["stack"] = Json(o.stack);
  out["n"] = Json(o.n);
  out["t"] = Json(o.t);
  out["delta"] = Json(o.delta);
  out["seed"] = Json(o.seed);
  out["tolerance"] = Json(o.tolerance);
  out["baseline"] = baseline_loaded ? Json(o.baseline) : Json();
  Json cfgs = Json::array();
  for (const SweepResult& s : sweeps) {
    Json c = Json::object();
    c["key"] = Json(s.key);
    c["ell"] = Json(s.ell);
    Json m = Json::object();
    for (const auto& [name, v] : s.metrics) m[name] = Json(v);
    c["metrics"] = std::move(m);
    c["fig6_qos"] = s.fig6_qos;
    c["fig7_qos"] = s.fig7_qos;
    c["stack_qos"] = s.stack_qos;
    c["smr"] = s.smr;
    Json mon = Json::object();
    mon["violations"] = Json(s.monitor_violations);
    mon["warnings"] = Json(s.monitor_warnings);
    Json by_rule = Json::object();
    for (const auto& [rule, c2] : s.monitor_by_rule) by_rule[rule] = Json(c2);
    mon["by_rule"] = std::move(by_rule);
    c["monitor"] = std::move(mon);
    Json tr = Json::object();
    tr["events"] = Json(s.trace_events);
    tr["dropped"] = Json(s.trace_dropped);
    c["trace"] = std::move(tr);
    cfgs.push_back(std::move(c));
  }
  out["configs"] = std::move(cfgs);
  Json regs = Json::array();
  for (const Regression& r : regressions) {
    Json rec = Json::object();
    rec["config"] = Json(r.config);
    rec["metric"] = Json(r.metric);
    rec["baseline"] = Json(r.baseline);
    rec["measured"] = Json(r.measured);
    rec["kind"] = Json(r.kind);
    regs.push_back(std::move(rec));
  }
  out["regressions"] = std::move(regs);
  Json ns = Json::array();
  for (const std::string& n : notes) ns.push_back(Json(n));
  out["notes"] = std::move(ns);
  return out;
}

std::string markdown_report(const Options& o, const std::vector<SweepResult>& sweeps,
                            const std::vector<Regression>& regressions,
                            const std::vector<std::string>& notes, bool baseline_loaded) {
  std::ostringstream md;
  md << "# HDS failure-detector QoS report\n\n";
  md << "- stack: `" << o.stack << "`, n=" << o.n << ", t=" << o.t << ", delta=" << o.delta
     << ", seed=" << o.seed << "\n";
  md << "- baseline: " << (baseline_loaded ? "`" + o.baseline + "`" : "(none)")
     << ", tolerance ±" << static_cast<int>(o.tolerance * 100) << "%\n\n";

  for (const SweepResult& s : sweeps) {
    md << "## " << s.key << " (" << s.ell << " distinct identifier"
       << (s.ell == 1 ? "" : "s") << " over " << o.n << " processes)\n\n";
    md << "| metric | value |\n|---|---|\n";
    for (const auto& [name, v] : s.metrics) {
      md << "| " << name << " | " << v << " |\n";
    }
    md << "\nMonitor: " << s.monitor_violations << " violation(s), " << s.monitor_warnings
       << " warning(s)";
    if (!s.monitor_by_rule.empty()) {
      md << " (";
      bool first = true;
      for (const auto& [rule, c] : s.monitor_by_rule) {
        if (!first) md << ", ";
        first = false;
        md << rule << ": " << c;
      }
      md << ")";
    }
    md << "\n\nTrace: " << s.trace_events << " event(s) retained, " << s.trace_dropped
       << " evicted from the ring\n\n";
    if (s.smr.number_or("ops_total", 0) > 0) {
      md << "Replicated log (closed loop, crash-free fast path): "
         << static_cast<std::int64_t>(s.smr.number_or("ops_total", 0)) << " ops at "
         << s.smr.number_or("ops_per_ktick", 0) << " ops/ktick, commit latency p50 "
         << s.smr.number_or("latency_p50", 0) << " / p99 " << s.smr.number_or("latency_p99", 0)
         << " ticks, " << s.smr.number_or("appends_per_batch", 0) << " append(s) per batch\n\n";
    } else {
      // Zero throughput under homonymy is the documented behaviour, not a
      // broken run: the lease requires a uniquely-carried leader identifier
      // (docs/smr.md), so at this ell no replica ever takes it.
      md << "Replicated log: lease fast path inactive — the HΩ leader "
            "identifier is carried by more than one replica at this degree "
            "of homonymy, so no replica may claim the lease (see "
            "docs/smr.md); 0 ops committed\n\n";
    }
  }

  md << "## Regressions\n\n";
  if (!baseline_loaded) {
    md << "No baseline loaded; nothing compared.\n\n";
  } else if (regressions.empty()) {
    md << "None. All tracked metrics within tolerance of the baseline.\n\n";
  } else {
    md << "| config | metric | baseline | measured | kind |\n|---|---|---|---|---|\n";
    for (const Regression& r : regressions) {
      md << "| " << r.config << " | " << r.metric << " | " << r.baseline << " | " << r.measured
         << " | " << r.kind << " |\n";
    }
    md << "\n";
  }

  if (!notes.empty()) {
    md << "## Notes\n\n";
    for (const std::string& n : notes) md << "- " << n << "\n";
    md << "\n";
  }

  md << "## Paper-claim mapping\n\n"
        "| Paper claim (EXPERIMENTS.md) | QoS metric here |\n|---|---|\n"
        "| Thm. 5: Fig. 6 implements ◇HP̄ in HPS (stabilizes after GST) | "
        "`fig6_stabilization_time`, `fig6_detection_max`, `fig6_mistake_intervals` |\n"
        "| Cor. 2: HΩ from ◇HP̄ (eventual common correct leader) | "
        "`fig6_leader_flaps`, `fig6_leader_settle_max`, `fig6_converged` |\n"
        "| Thm. 6: Fig. 7 implements HΣ in HSS (intersection + liveness) | "
        "`fig7_quorum_margin_min`, `fig7_liveness_wait_max` |\n"
        "| Thms. 7/8: consensus terminates on the full stack | "
        "`cons_decided`, `cons_last_decision_time`, `cons_max_round` |\n"
        "| Message complexity of the stack | `cons_broadcasts` |\n"
        "| Repeated consensus as a service (Sec. V application) | "
        "`smr_ops_total`, `smr_latency_p50`, `smr_latency_p99`, `smr_appends_per_batch` |\n";
  return md.str();
}

bool write_file(const std::string& path, const std::string& content) {
  try {
    hds::obs::write_text_file(path, content);
  } catch (const std::exception& e) {
    std::cerr << "hds_report: " << e.what() << '\n';
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    usage(std::cerr);
    return 1;
  }

  // Each sweep point is a pure function of (options, ell) — its own System,
  // registry, and monitors — so the points fan out across workers and the
  // report is byte-identical for every -j.
  std::cerr << "hds_report: running " << o.ells.size() << ' ' << o.stack
            << " sweep point(s) with " << o.jobs << " worker(s)\n";
  hds::exp::TaskTimings timings;
  const std::vector<SweepResult> sweeps = hds::exp::run_collect(
      o.ells.size(), o.jobs, [&o](std::size_t k) { return run_sweep_point(o, o.ells[k]); },
      &timings);
  if (!timings.task_ms.empty()) {
    std::cerr << "hds_report: sweep wall-clock max " << timings.max_ms() << " ms, mean "
              << timings.mean_ms() << " ms, imbalance " << timings.imbalance() << "x\n";
  }

  if (o.write_baseline) {
    if (!write_file(o.baseline, baseline_json(o, sweeps).dump(2) + "\n")) return 1;
    std::cerr << "hds_report: wrote baseline " << o.baseline << '\n';
  }

  std::vector<Regression> regressions;
  std::vector<std::string> notes;
  bool baseline_loaded = false;
  try {
    const Json baseline = hds::obs::load_json_file(o.baseline);
    baseline_loaded = true;
    if (o.write_baseline) {
      notes.push_back("baseline freshly written; comparison is a self-check");
    }
    compare_against_baseline(baseline, o, sweeps, regressions, notes);
  } catch (const hds::obs::JsonParseError& e) {
    std::cerr << "hds_report: baseline unreadable: " << e.what() << '\n';
    return 1;
  } catch (const std::runtime_error&) {
    notes.push_back("no baseline at " + o.baseline + "; regression check skipped");
  }

  const Json report = report_json(o, sweeps, regressions, notes, baseline_loaded);
  if (!write_file(o.json_path, report.dump(2) + "\n")) return 1;
  if (!write_file(o.md_path, markdown_report(o, sweeps, regressions, notes, baseline_loaded))) {
    return 1;
  }
  for (const SweepResult& s : sweeps) {
    write_file(o.out_dir + "/qos_metrics_" + s.key + ".json", s.metrics_json + "\n");
  }

  std::cerr << "hds_report: wrote " << o.json_path << " and " << o.md_path << '\n';
  if (!regressions.empty()) {
    std::cerr << "hds_report: " << regressions.size() << " regression(s) against " << o.baseline
              << '\n';
    for (const Regression& r : regressions) {
      std::cerr << "  " << r.config << " " << r.metric << ": baseline " << r.baseline
                << " -> measured " << r.measured << " (" << r.kind << ")\n";
    }
    return 2;
  }
  return 0;
}
