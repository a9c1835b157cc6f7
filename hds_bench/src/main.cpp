// hds_bench — end-to-end benchmark of the homonymous FD / consensus / SMR
// stack.
//
//   hds_bench --workload W [--seed S] [--seconds X] [--trace DIR] [--quick]
//   hds_bench --list
//
// Runs workload W once untraced and prints one JSON line (schema
// hds-bench-result-v1): machine context, attempted / failed units, and every
// end-to-end metric with its value, unit and sample count. With --trace DIR
// it then re-runs W with the timing proxies on, checks that the traced pass
// reproduced the untraced pass's sim-domain outcomes exactly, adds the
// per-layer metrics to the line under "layers", and writes
// DIR/W.layers.json and DIR/W.trace.json (Chrome trace of the last run).
//
// Exit codes: 0 result printed; 1 usage or runtime error; 2 a safety
// property broke (the violated property goes to stderr); 3 two executions
// that must be identical differed. Liveness failures are not errors: they
// are counted in "failed".
#include <stdlib.h>

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json.h"
#include "report.h"

namespace {

using hds::obs::Json;
using namespace hdsb;

int usage() {
  std::cerr << "usage: hds_bench --workload W [--seed S] [--seconds X] [--trace DIR] [--quick]\n"
               "       hds_bench --list\n";
  return 1;
}

Json metric_json(const Metric& m) {
  Json j = Json::object();
  j["value"] = m.value;
  j["unit"] = m.unit;
  j["samples"] = m.samples;
  return j;
}

Json list_json() {
  Json out = Json::object();
  Json ws = Json::array();
  for (const WorkloadInfo& w : workloads()) {
    Json j = Json::object();
    j["name"] = w.name;
    j["what"] = w.what;
    j["why"] = w.why;
    ws.push_back(std::move(j));
  }
  out["workloads"] = std::move(ws);
  const auto metrics = [](const std::vector<MetricInfo>& v) {
    Json a = Json::array();
    for (const MetricInfo& m : v) {
      Json j = Json::object();
      j["name"] = m.name;
      j["unit"] = m.unit;
      j["workloads"] = m.workloads == nullptr ? "all" : m.workloads;
      j["what"] = m.what;
      a.push_back(std::move(j));
    }
    return a;
  };
  out["end_to_end"] = metrics(e2e_metrics());
  out["per_layer"] = metrics(layer_metrics());
  return out;
}

Json machine_context() {
  Json c = Json::object();
  c["nproc"] = std::thread::hardware_concurrency();
  c["build_type"] = HDS_BENCH_BUILD_TYPE;
#if defined(__clang__)
  c["compiler"] = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  c["compiler"] = std::string("gcc ") + __VERSION__;
#else
  c["compiler"] = "unknown";
#endif
  c["git_sha"] = HDS_BENCH_GIT_SHA;
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) == 3) {
    c["loadavg_1m"] = load[0];
    c["loadavg_5m"] = load[1];
  }
  return c;
}

bool applies_to(const MetricInfo& m, const std::string& workload) {
  if (m.workloads == nullptr) return true;
  std::stringstream ss(m.workloads);
  for (std::string w; std::getline(ss, w, ',');) {
    if (w == workload) return true;
  }
  return false;
}

// Orders `got` by the catalogue. Every metric that applies to the workload
// must be present; the others read 0. Names outside the catalogue are bugs.
std::vector<Metric> complete(const std::vector<MetricInfo>& catalogue, std::vector<Metric> got,
                             const std::string& workload) {
  std::vector<Metric> out;
  for (const MetricInfo& info : catalogue) {
    const auto it = std::find_if(got.begin(), got.end(),
                                 [&](const Metric& m) { return m.name == info.name; });
    if (it != got.end()) {
      if (it->unit != info.unit) {
        throw std::logic_error(std::string("metric ") + info.name + " reported in " + it->unit);
      }
      out.push_back(*it);
      got.erase(it);
    } else if (applies_to(info, workload)) {
      throw std::logic_error(std::string("workload ") + workload + " did not report " + info.name);
    } else {
      out.push_back({info.name, 0, info.unit, 0});
    }
  }
  if (!got.empty()) throw std::logic_error("metric outside the catalogue: " + got.front().name);
  return out;
}

double value_of(const std::vector<Metric>& v, const std::string& name) {
  for (const Metric& m : v) {
    if (m.name == name) return m.value;
  }
  throw std::logic_error("no metric " + name);
}

int run(int argc, char** argv) {
  std::string workload;
  std::string trace_dir;
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--list") {
      std::cout << list_json().dump(2) << "\n";
      return 0;
    } else if (a == "--workload") {
      workload = next();
    } else if (a == "--seed") {
      o.seed = std::stoull(next());
    } else if (a == "--seconds") {
      o.seconds = std::stod(next());
      if (!(o.seconds > 0 && o.seconds <= 600)) throw std::invalid_argument("--seconds out of range");
    } else if (a == "--trace") {
      trace_dir = next();
    } else if (a == "--quick") {
      o.quick = true;
    } else {
      return usage();
    }
  }
  const WorkloadInfo* w = nullptr;
  for (const WorkloadInfo& cand : workloads()) {
    if (workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage();

  Json line = Json::object();
  line["schema"] = "hds-bench-result-v1";
  line["workload"] = w->name;
  line["seed"] = o.seed;
  line["seconds"] = o.seconds;
  line["quick"] = o.quick;
  line["context"] = machine_context();

  const PassResult plain = w->run(o, false);
  std::vector<Metric> e2e = complete(e2e_metrics(), plain.e2e, w->name);
  line["correct"] = true;
  line["attempted"] = plain.attempted;
  line["failed"] = plain.failed;
  line["error_rate"] =
      plain.attempted > 0 ? static_cast<double>(plain.failed) / static_cast<double>(plain.attempted) : 0.0;
  Json metrics = Json::object();
  for (const Metric& m : e2e) metrics[m.name] = metric_json(m);
  line["metrics"] = std::move(metrics);

  if (!trace_dir.empty()) {
    PassResult traced = w->run(o, true);
    if (plain.deterministic &&
        (traced.fingerprint != plain.fingerprint || traced.attempted != plain.attempted ||
         traced.failed != plain.failed)) {
      throw Divergence(std::string(w->name) + ": the traced pass changed sim-domain outcomes");
    }
    traced.layers.push_back({"trace.overhead",
                             value_of(plain.e2e, "units_per_s") / value_of(traced.e2e, "units_per_s"),
                             "ratio", traced.runs});
    const std::vector<Metric> layers = complete(layer_metrics(), traced.layers, w->name);
    Json lj = Json::object();
    for (const Metric& m : layers) lj[m.name] = metric_json(m);
    std::filesystem::create_directories(trace_dir);
    const std::string base = trace_dir + "/" + w->name;
    Json doc = Json::object();
    doc["schema"] = "hds-bench-layers-v1";
    doc["workload"] = w->name;
    doc["seed"] = o.seed;
    doc["context"] = line["context"];
    doc["layers"] = lj;
    hds::obs::write_text_file(base + ".layers.json", doc.dump(2) + "\n");
    write_chrome_trace(base + ".trace.json", traced.trace);
    line["layers"] = std::move(lj);
  }
  std::cout << line.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const SafetyViolation& e) {
    std::cerr << "hds_bench: SAFETY VIOLATION: " << e.what() << "\n";
    return 2;
  } catch (const Divergence& e) {
    std::cerr << "hds_bench: DIVERGENCE: " << e.what() << "\n";
    return 3;
  } catch (const std::exception& e) {
    std::cerr << "hds_bench: " << e.what() << "\n";
    return 1;
  }
}
