// hds_cluster — loopback deployment launcher: spawns N hds_node processes
// on 127.0.0.1, drives a full run, and verifies the outcome.
//
//   hds_cluster --node PATH/hds_node --stack fig8 --n 3 [--t 1] [--seed S]
//               [--dir OUT] [--timeout-ms 60000] [--no-batching]
//               [--metrics] [--homonymous] [--no-trace]
//               [--trace-capacity N] [--telemetry-interval-ms MS]
//               [--no-admin] [--linger-ms MS] [--profile]
//               [--reliable] [--loss P] [--supervise]
//               [--kill-node I] [--kill-at-ms MS] [--max-restarts K]
//
// Self-healing plane: --reliable turns on the per-link ARQ layer in every
// node (and the nodes' fig8 DECIDE rebroadcast), --loss P drops each
// inter-node copy with probability P inside every node, and --supervise
// makes the launcher a supervisor: a node that dies by a signal is
// respawned in place (same slot, same UDP port) with an incremented
// incarnation epoch, so it REJOINs the running cluster instead of
// re-running the HELLO barrier. --kill-node/--kill-at-ms SIGKILL one slot
// mid-run to exercise exactly that path. A respawned node announces a fresh
// admin port; the launcher re-publishes admin_endpoints.json so hds_top and
// the telemetry plane follow the new incarnation.
//
// Health plane: unless --no-admin, every node serves hds-admin-v1
// (STATS/STATUS) on an ephemeral UDP port. Each node announces its bound
// port through its telemetry deltas (and drops it in nodeI.admin_port);
// once every slot has announced, the launcher publishes
// --dir/admin_endpoints.json for hds_top. --profile turns on the in-process
// profiler in every node and collects nodeI.folded collapsed stacks;
// --linger-ms stretches the post-decision linger so a dashboard or the CI
// smoke has time to poll live nodes.
//
// Steps: probe-bind N ephemeral UDP ports (closed again just before the
// spawn — the hds_node barrier tolerates the tiny rebind window), write one
// hds-node-config-v1 JSON per slot into --dir, fork/exec the daemons with
// stdout/stderr captured to files, wait with a deadline (SIGKILL on
// overrun), then parse each node's result line.
//
// Telemetry plane (default on; --no-trace disables): the launcher binds an
// admin UDP port, every node streams hds-telemetry-v1 deltas to it, and a
// TelemetryMerger rebases the per-node traces onto one wall-clock timeline.
// Outputs land in --dir: trace_merged.json (Chrome trace, one pid per node,
// flow arrows send->recv across lanes) and a "telemetry" block in the
// summary (per-node delta/drop accounting + cluster QoS latency).
//
// Fail fast: a node exiting nonzero while peers are still running (e.g. it
// died before the HELLO barrier, which would wedge everyone else until the
// full deadline) starts a short grace timer; survivors are then killed, the
// run is marked failed, and whatever telemetry arrived is still reported.
//
// Verification per stack: fig8/fig9 — every node decided, all values agree
// (uniform agreement) and each is some node's proposal (validity);
// fig6 — every node converged on the same (leader, multiplicity);
// fig7 — every node certified at least one quorum;
// smr — every node's replicated log settled, all applied frontiers and
// order-sensitive log hashes agree, and client ops actually committed.
// Exit 0 iff everything checks out; a machine-readable summary JSON
// (schema hds-cluster-result-v1) is the last stdout line.
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/udp.h"
#include "obs/json.h"
#include "obs/telemetry.h"
#include "obs/trace_export.h"

namespace {

using hds::obs::Json;

struct Options {
  std::string node_bin;
  std::string stack = "fig8";
  std::size_t n = 3;
  std::size_t t = 1;
  std::uint64_t seed = 1;
  std::string dir;
  std::int64_t timeout_ms = 60000;
  bool batching = true;
  bool metrics = false;
  bool homonymous = false;  // give two nodes the same identifier
  bool trace = true;        // causal tracing + telemetry plane
  std::size_t trace_capacity = 1 << 16;
  std::int64_t telemetry_interval_ms = 200;
  std::int64_t fail_fast_grace_ms = 2000;
  bool node_admin = true;     // per-node hds-admin-v1 servers
  std::int64_t linger_ms = -1;  // -1 = node default
  bool profile = false;
  bool reliable = false;        // per-link ARQ in every node
  double loss = 0.0;            // symmetric copy-loss probability per node
  bool supervise = false;       // respawn signal-killed nodes with epoch+1
  std::int64_t kill_node = -1;  // slot to SIGKILL mid-run (-1 = none)
  std::int64_t kill_at_ms = 500;
  int max_restarts = 3;         // per-slot respawn budget
};

void usage(std::ostream& os) {
  os << "usage: hds_cluster --node PATH --stack fig6|fig7|fig8|fig9|smr --n N\n"
        "                   [--t T] [--seed S] [--dir OUT] [--timeout-ms MS]\n"
        "                   [--no-batching] [--metrics] [--homonymous]\n"
        "                   [--no-trace] [--trace-capacity N]\n"
        "                   [--telemetry-interval-ms MS] [--no-admin]\n"
        "                   [--linger-ms MS] [--profile]\n"
        "                   [--reliable] [--loss P] [--supervise]\n"
        "                   [--kill-node I] [--kill-at-ms MS] [--max-restarts K]\n";
}

bool parse_args(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--node") {
      const char* v = next();
      if (v == nullptr) return false;
      o.node_bin = v;
    } else if (a == "--stack") {
      const char* v = next();
      if (v == nullptr) return false;
      o.stack = v;
    } else if (a == "--n") {
      const char* v = next();
      if (v == nullptr) return false;
      o.n = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (a == "--t") {
      const char* v = next();
      if (v == nullptr) return false;
      o.t = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (a == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--dir") {
      const char* v = next();
      if (v == nullptr) return false;
      o.dir = v;
    } else if (a == "--timeout-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      o.timeout_ms = std::strtoll(v, nullptr, 10);
    } else if (a == "--no-batching") {
      o.batching = false;
    } else if (a == "--metrics") {
      o.metrics = true;
    } else if (a == "--homonymous") {
      o.homonymous = true;
    } else if (a == "--no-trace") {
      o.trace = false;
    } else if (a == "--trace-capacity") {
      const char* v = next();
      if (v == nullptr) return false;
      o.trace_capacity = static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
    } else if (a == "--telemetry-interval-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      o.telemetry_interval_ms = std::strtoll(v, nullptr, 10);
    } else if (a == "--no-admin") {
      o.node_admin = false;
    } else if (a == "--linger-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      o.linger_ms = std::strtoll(v, nullptr, 10);
    } else if (a == "--profile") {
      o.profile = true;
    } else if (a == "--reliable") {
      o.reliable = true;
    } else if (a == "--loss") {
      const char* v = next();
      if (v == nullptr) return false;
      o.loss = std::strtod(v, nullptr);
    } else if (a == "--supervise") {
      o.supervise = true;
    } else if (a == "--kill-node") {
      const char* v = next();
      if (v == nullptr) return false;
      o.kill_node = std::strtoll(v, nullptr, 10);
    } else if (a == "--kill-at-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      o.kill_at_ms = std::strtoll(v, nullptr, 10);
    } else if (a == "--max-restarts") {
      const char* v = next();
      if (v == nullptr) return false;
      o.max_restarts = static_cast<int>(std::strtol(v, nullptr, 10));
    } else {
      return false;
    }
  }
  if (o.loss < 0.0 || o.loss >= 1.0) return false;
  if (o.kill_node >= 0 && static_cast<std::size_t>(o.kill_node) >= o.n) return false;
  return !o.node_bin.empty() && o.n >= 1;
}

// Identifier pattern: 1..n, or with --homonymous the first two slots share
// identifier 1 (needs n >= 3 so a correct majority still exists).
std::vector<std::uint64_t> make_ids(const Options& o) {
  std::vector<std::uint64_t> ids(o.n);
  for (std::size_t i = 0; i < o.n; ++i) ids[i] = i + 1;
  if (o.homonymous && o.n >= 3) {
    ids[1] = ids[0];
    for (std::size_t i = 2; i < o.n; ++i) ids[i] = i;
  }
  return ids;
}

Json node_config(const Options& o, const std::vector<std::uint64_t>& ids,
                 const std::vector<std::uint16_t>& ports, std::size_t self,
                 std::uint16_t admin_port, std::uint64_t epoch = 0) {
  Json cfg = Json::object();
  cfg["schema"] = "hds-node-config-v1";
  cfg["self"] = self;
  cfg["stack"] = o.stack;
  if (o.reliable) cfg["reliable"] = true;
  if (o.loss > 0.0) cfg["loss"] = o.loss;
  if (epoch > 0) cfg["epoch"] = epoch;
  Json peers = Json::array();
  for (std::size_t i = 0; i < o.n; ++i) {
    Json p = Json::object();
    p["id"] = ids[i];
    p["host"] = "127.0.0.1";
    p["port"] = ports[i];
    peers.push_back(p);
  }
  cfg["peers"] = peers;
  cfg["seed"] = o.seed + self;
  cfg["proposal"] = 100 + self;
  cfg["t_known"] = o.t;
  cfg["batching"] = o.batching;
  cfg["max_time_ms"] = o.timeout_ms;
  cfg["barrier_timeout_ms"] = o.timeout_ms;
  if (o.metrics) cfg["metrics_json"] = o.dir + "/node" + std::to_string(self) + "_metrics.json";
  if (o.trace) {
    cfg["trace_capacity"] = o.trace_capacity;
    cfg["admin_host"] = "127.0.0.1";
    cfg["admin_port"] = admin_port;
    cfg["telemetry_interval_ms"] = o.telemetry_interval_ms;
  }
  if (o.linger_ms >= 0) cfg["linger_ms"] = o.linger_ms;
  if (o.node_admin) {
    cfg["admin_listen_port"] = 0;  // ephemeral; announced via telemetry
    cfg["admin_port_file"] = o.dir + "/node" + std::to_string(self) + ".admin_port";
  }
  if (o.profile) {
    cfg["profile"] = true;
    cfg["profile_out"] = o.dir + "/node" + std::to_string(self) + ".folded";
  }
  return cfg;
}

pid_t spawn_node(const std::string& bin, const std::string& cfg_path, const std::string& out_path,
                 const std::string& err_path) {
  const pid_t pid = fork();
  if (pid != 0) return pid;  // parent (or fork failure, reported there)
  // Child: capture output, exec the daemon.
  if (FILE* f = std::freopen(out_path.c_str(), "w", stdout); f == nullptr) _exit(127);
  if (FILE* f = std::freopen(err_path.c_str(), "w", stderr); f == nullptr) _exit(127);
  execl(bin.c_str(), bin.c_str(), "--config", cfg_path.c_str(), (char*)nullptr);
  _exit(127);
}

// The result line is the LAST non-empty stdout line (the daemon logs to
// stderr, so stdout normally holds exactly one line).
Json parse_result(const std::string& out_path) {
  const std::string text = hds::obs::read_text_file(out_path);
  std::string last;
  std::string cur;
  for (const char c : text) {
    if (c == '\n') {
      if (!cur.empty()) last = cur;
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) last = cur;
  if (last.empty()) throw std::runtime_error("no result line in " + out_path);
  return Json::parse(last);
}

int run(const Options& o) {
  // Reserve one ephemeral port per node. The sockets stay open while ALL
  // ports are chosen (so the kernel cannot hand out duplicates), then close
  // just before the spawn. The small rebind window is covered by the
  // hds_node HELLO barrier: nothing is sent before every peer is bound.
  std::vector<std::uint16_t> ports(o.n);
  {
    std::vector<std::unique_ptr<hds::net::UdpSocket>> probes;
    for (std::size_t i = 0; i < o.n; ++i) {
      auto s = std::make_unique<hds::net::UdpSocket>();
      s->open(hds::net::UdpEndpoint{"127.0.0.1", 0});
      ports[i] = s->local_port();
      probes.push_back(std::move(s));
    }
  }

  // Telemetry plane: bind the admin socket before any node spawns so the
  // very first delta (the epoch announcement right after a node's barrier)
  // has somewhere to land.
  hds::net::UdpSocket admin;
  hds::obs::TelemetryMerger merger;
  std::mutex merger_mu;
  std::atomic<bool> tele_stop{false};
  std::uint64_t tele_datagrams = 0;
  std::uint64_t tele_malformed = 0;
  const std::string endpoints_path = o.dir + "/admin_endpoints.json";
  std::atomic<bool> endpoints_written{false};
  // Last port published per slot (guarded by merger_mu): a respawned
  // incarnation binds a fresh ephemeral admin port, and a mismatch against
  // this vector is what triggers a re-publish mid-run.
  std::vector<std::uint16_t> published_ports(o.n, 0);

  // Publishes admin_endpoints.json for hds_top. Primary source is the port
  // each node announced through its telemetry deltas; the nodeI.admin_port
  // drop files cover --no-trace runs. Returns true when every slot's port
  // is known (the file is written either way, flagged "complete").
  const auto publish_endpoints = [&](bool allow_files) {
    Json nodes = Json::object();
    bool complete = true;
    for (std::size_t i = 0; i < o.n; ++i) {
      std::uint16_t port = 0;
      {
        std::lock_guard lk(merger_mu);
        port = merger.node_admin_port(static_cast<hds::ProcIndex>(i));
        published_ports[i] = port;
      }
      if (port == 0 && allow_files) {
        try {
          const std::string text =
              hds::obs::read_text_file(o.dir + "/node" + std::to_string(i) + ".admin_port");
          port = static_cast<std::uint16_t>(std::strtoul(text.c_str(), nullptr, 10));
        } catch (const std::exception&) {
        }
      }
      if (port == 0) {
        complete = false;
        continue;
      }
      Json ep = Json::object();
      ep["host"] = "127.0.0.1";
      ep["port"] = port;
      nodes[std::to_string(i)] = std::move(ep);
    }
    Json doc = Json::object();
    doc["schema"] = "hds-admin-endpoints-v1";
    doc["n"] = o.n;
    doc["complete"] = complete;
    doc["nodes"] = std::move(nodes);
    hds::obs::write_text_file(endpoints_path, doc.dump(2) + "\n");
    if (complete) endpoints_written.store(true, std::memory_order_relaxed);
    return complete;
  };

  std::thread listener;
  if (o.trace) {
    admin.open(hds::net::UdpEndpoint{"127.0.0.1", 0}, 50);
    listener = std::thread([&] {
      std::vector<std::uint8_t> buf;
      while (!tele_stop.load(std::memory_order_relaxed)) {
        const auto len = admin.recv(buf);
        if (!len.has_value()) continue;
        bool all_announced = false;
        try {
          const Json j = Json::parse(std::string(buf.begin(), buf.begin() + *len));
          const hds::obs::TelemetryDelta d = hds::obs::telemetry_delta_from_json(j);
          std::lock_guard lk(merger_mu);
          merger.ingest(d);
          ++tele_datagrams;
          // Publish when a slot announces a port we have not published yet —
          // covers both the initial all-announced instant and a respawned
          // incarnation's fresh ephemeral port.
          all_announced = o.node_admin && d.admin_port != 0 && d.node < o.n &&
                          published_ports[d.node] != d.admin_port;
          for (std::size_t i = 0; all_announced && i < o.n; ++i) {
            all_announced = merger.node_admin_port(static_cast<hds::ProcIndex>(i)) != 0;
          }
        } catch (const std::exception&) {
          ++tele_malformed;
        }
        // Outside the merger lock: publishing while every node is mid-run
        // is the whole point — hds_top attaches to a live cluster.
        if (all_announced && publish_endpoints(false)) {
          std::cerr << "hds_cluster: all admin ports announced -> " << endpoints_path << "\n";
        }
      }
    });
  }

  const std::vector<std::uint64_t> ids = make_ids(o);
  std::vector<pid_t> pids(o.n, -1);
  std::vector<std::string> out_paths(o.n), err_paths(o.n);
  for (std::size_t i = 0; i < o.n; ++i) {
    const std::string base = o.dir + "/node" + std::to_string(i);
    const std::string cfg_path = base + ".json";
    out_paths[i] = base + ".out";
    err_paths[i] = base + ".err";
    hds::obs::write_text_file(cfg_path,
                              node_config(o, ids, ports, i, admin.local_port()).dump(2) + "\n");
    pids[i] = spawn_node(o.node_bin, cfg_path, out_paths[i], err_paths[i]);
    if (pids[i] < 0) {
      std::cerr << "hds_cluster: fork failed for node " << i << "\n";
      for (std::size_t k = 0; k < i; ++k) kill(pids[k], SIGKILL);
      tele_stop.store(true, std::memory_order_relaxed);
      if (listener.joinable()) listener.join();
      return 1;
    }
  }
  std::cerr << "hds_cluster: spawned " << o.n << " node(s), stack=" << o.stack << "\n";

  // Wait for everyone, with a deadline covering barrier + run + linger.
  // Fail fast: one node exiting nonzero (config error, immediate crash,
  // barrier timeout) leaves the survivors blocked on it — the HELLO barrier
  // and the quorum waits both need every slot — so after a short grace the
  // survivors are killed instead of burning the whole deadline.
  const auto t_start = std::chrono::steady_clock::now();
  const auto deadline =
      t_start + std::chrono::milliseconds(o.timeout_ms) + std::chrono::seconds(10);
  std::vector<int> exit_codes(o.n, -1);
  std::vector<int> restarts(o.n, 0);
  std::size_t live = o.n;
  bool timed_out = false;
  bool failed_fast = false;
  bool kill_fired = false;
  std::size_t first_failed_node = 0;
  std::optional<std::chrono::steady_clock::time_point> first_failure;
  while (live > 0) {
    // Scheduled fault: SIGKILL the victim slot once (skipped if it already
    // exited on its own — there is no incarnation left to crash).
    if (o.kill_node >= 0 && !kill_fired &&
        std::chrono::steady_clock::now() >= t_start + std::chrono::milliseconds(o.kill_at_ms)) {
      kill_fired = true;
      const auto victim = static_cast<std::size_t>(o.kill_node);
      if (exit_codes[victim] == -1) {
        std::cerr << "hds_cluster: SIGKILL node " << victim << " at +" << o.kill_at_ms << "ms\n";
        kill(pids[victim], SIGKILL);
      }
    }
    for (std::size_t i = 0; i < o.n; ++i) {
      if (exit_codes[i] != -1) continue;
      int status = 0;
      const pid_t r = waitpid(pids[i], &status, WNOHANG);
      if (r == pids[i]) {
        // Crash-restart supervision: a signal death (the crash model) is
        // respawned in place with an incremented incarnation epoch while the
        // restart budget lasts. The new process rebinds the same data port,
        // REJOINs through the running peers, and catches up via the ARQ
        // requeue + DECIDE rebroadcast. Nonzero *exits* (config errors,
        // barrier timeouts) are logic failures and still fail fast.
        if (o.supervise && WIFSIGNALED(status) && restarts[i] < o.max_restarts &&
            !first_failure.has_value()) {
          ++restarts[i];
          const auto epoch = static_cast<std::uint64_t>(restarts[i]);
          const std::string cfg_path = o.dir + "/node" + std::to_string(i) + ".json";
          hds::obs::write_text_file(
              cfg_path,
              node_config(o, ids, ports, i, admin.local_port(), epoch).dump(2) + "\n");
          pids[i] = spawn_node(o.node_bin, cfg_path, out_paths[i], err_paths[i]);
          if (pids[i] >= 0) {
            std::cerr << "hds_cluster: node " << i << " died (signal " << WTERMSIG(status)
                      << "); respawned as epoch " << epoch << "\n";
            continue;  // the slot is live again; nothing exited
          }
          std::cerr << "hds_cluster: respawn fork failed for node " << i << "\n";
        }
        exit_codes[i] = WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
        --live;
        if (exit_codes[i] != 0 && !first_failure.has_value()) {
          first_failure = std::chrono::steady_clock::now();
          first_failed_node = i;
          std::cerr << "hds_cluster: node " << i << " exited " << exit_codes[i]
                    << "; killing survivors in " << o.fail_fast_grace_ms << "ms\n";
        }
      }
    }
    if (live == 0) break;
    const auto now = std::chrono::steady_clock::now();
    const bool grace_over =
        first_failure.has_value() &&
        now > *first_failure + std::chrono::milliseconds(o.fail_fast_grace_ms);
    if (grace_over || now > deadline) {
      timed_out = !grace_over;
      failed_fast = grace_over;
      for (std::size_t i = 0; i < o.n; ++i) {
        if (exit_codes[i] == -1) {
          kill(pids[i], SIGKILL);
          int status = 0;
          waitpid(pids[i], &status, 0);
          exit_codes[i] = 124;
          --live;
        }
      }
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  // Collect and verify.
  bool ok = !timed_out;
  Json nodes = Json::array();
  std::vector<Json> results(o.n);
  for (std::size_t i = 0; i < o.n; ++i) {
    if (exit_codes[i] != 0) {
      std::cerr << "hds_cluster: node " << i << " exited " << exit_codes[i] << " (see "
                << err_paths[i] << ")\n";
      ok = false;
    }
    try {
      results[i] = parse_result(out_paths[i]);
    } catch (const std::exception& e) {
      std::cerr << "hds_cluster: node " << i << ": " << e.what() << "\n";
      ok = false;
      results[i] = Json::object();
    }
    nodes.push_back(results[i]);
  }

  std::string verdict = "ok";
  if (o.stack == "fig8" || o.stack == "fig9") {
    std::set<std::int64_t> values;
    std::set<std::int64_t> valid;
    for (std::size_t i = 0; i < o.n; ++i) valid.insert(static_cast<std::int64_t>(100 + i));
    for (std::size_t i = 0; i < o.n && ok; ++i) {
      const Json* d = results[i].find("decided");
      if (d == nullptr || !d->boolean()) {
        verdict = "node " + std::to_string(i) + " did not decide";
        ok = false;
        break;
      }
      const std::int64_t v = static_cast<std::int64_t>(results[i].number_or("value", -1));
      values.insert(v);
      if (valid.count(v) == 0) {
        verdict = "node " + std::to_string(i) + " decided non-proposed value";
        ok = false;
      }
    }
    if (ok && values.size() != 1) {
      verdict = "agreement violated: " + std::to_string(values.size()) + " distinct decisions";
      ok = false;
    }
  } else if (o.stack == "fig6") {
    std::set<std::pair<std::int64_t, std::int64_t>> leaders;
    for (std::size_t i = 0; i < o.n && ok; ++i) {
      leaders.insert({static_cast<std::int64_t>(results[i].number_or("leader", -1)),
                      static_cast<std::int64_t>(results[i].number_or("multiplicity", -1))});
    }
    if (ok && leaders.size() != 1) {
      verdict = "leader disagreement across nodes";
      ok = false;
    }
  } else if (o.stack == "fig7") {
    for (std::size_t i = 0; i < o.n && ok; ++i) {
      if (results[i].number_or("quora", 0) < 1) {
        verdict = "node " + std::to_string(i) + " certified no quorum";
        ok = false;
      }
    }
  } else if (o.stack == "smr") {
    // Replicated-log convergence: every node's log settled (applied ==
    // committed), all nodes applied the same prefix — identical frontier
    // AND identical order-sensitive log hash — and the cluster as a whole
    // actually committed client traffic. Hashes travel as hex strings
    // because JSON numbers cannot carry 64 bits.
    std::set<std::string> hashes;
    std::set<std::int64_t> frontiers;
    double total_ops = 0.0;
    for (std::size_t i = 0; i < o.n && ok; ++i) {
      const Json* s = results[i].find("settled");
      if (s == nullptr || !s->boolean()) {
        verdict = "node " + std::to_string(i) + " log did not settle";
        ok = false;
        break;
      }
      hashes.insert(results[i].string_or("log_hash", ""));
      frontiers.insert(static_cast<std::int64_t>(results[i].number_or("applied_through", -1)));
      total_ops += results[i].number_or("ops_done", 0);
    }
    if (ok && frontiers.size() != 1) {
      verdict = "applied frontiers diverge across nodes";
      ok = false;
    }
    if (ok && hashes.size() != 1) {
      verdict = "log hash disagreement: " + std::to_string(hashes.size()) + " distinct logs";
      ok = false;
    }
    if (ok && total_ops <= 0) {
      verdict = "no client ops completed";
      ok = false;
    }
  }
  if (timed_out) verdict = "deadline exceeded";
  // A node that exited nonzero is the cause, even when every node exited
  // within one poll and no survivor was left to kill.
  if (first_failure.has_value()) {
    verdict = "node " + std::to_string(first_failed_node) + " exited " +
              std::to_string(exit_codes[first_failed_node]);
    if (failed_fast) verdict += "; survivors killed";
  }

  // Drain the telemetry plane: final-flush datagrams may still be in
  // flight right after the last child exits.
  std::vector<hds::obs::NodeTrace> node_traces;
  Json telemetry;
  if (o.trace) {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    tele_stop.store(true, std::memory_order_relaxed);
    listener.join();
    admin.close();
    std::lock_guard lk(merger_mu);
    node_traces = merger.node_traces();
    telemetry = merger.summary();
    telemetry["datagrams"] = tele_datagrams;
    telemetry["malformed"] = tele_malformed;
  }

  Json summary = Json::object();
  summary["schema"] = "hds-cluster-result-v1";
  summary["stack"] = o.stack;
  summary["n"] = o.n;
  summary["ok"] = ok;
  summary["verdict"] = ok ? "ok" : verdict;
  summary["nodes"] = nodes;
  if (o.supervise || o.kill_node >= 0) {
    Json r = Json::array();
    for (const int k : restarts) r.push_back(k);
    summary["restarts"] = r;
  }
  if (o.node_admin && !endpoints_written.load(std::memory_order_relaxed)) {
    // Fallback for --no-trace (or lost announcements): the port drop files.
    publish_endpoints(true);
  }
  if (o.node_admin) summary["admin_endpoints"] = endpoints_path;
  if (o.trace) {
    const std::string trace_path = o.dir + "/trace_merged.json";
    const std::string label = "hds_cluster " + o.stack + " n=" + std::to_string(o.n) +
                              " seed=" + std::to_string(o.seed);
    hds::obs::write_text_file(trace_path,
                              hds::obs::merged_chrome_trace_json(node_traces, label));
    summary["telemetry"] = telemetry;
    summary["trace_merged"] = trace_path;
    std::cerr << "hds_cluster: merged trace (" << node_traces.size() << " node lanes) -> "
              << trace_path << "\n";
  }
  std::cout << summary.dump() << "\n";
  hds::obs::write_text_file(o.dir + "/summary.json", summary.dump(2) + "\n");
  if (ok) {
    std::cerr << "hds_cluster: PASS (" << o.stack << ", n=" << o.n << ")\n";
  } else {
    std::cerr << "hds_cluster: FAIL: " << verdict << "\n";
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, o)) {
    usage(std::cerr);
    return 2;
  }
  if (o.dir.empty()) {
    o.dir = "cluster_out_" + std::to_string(getpid());
  }
  if (mkdir(o.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::cerr << "hds_cluster: cannot create " << o.dir << "\n";
    return 2;
  }
  // A previous run's endpoints in the same --dir would send hds_top (and the
  // --no-trace fallback publication) to that run's dead ports.
  std::remove((o.dir + "/admin_endpoints.json").c_str());
  for (std::size_t i = 0; i < o.n; ++i) {
    std::remove((o.dir + "/node" + std::to_string(i) + ".admin_port").c_str());
  }
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::cerr << "hds_cluster: " << e.what() << "\n";
    return 2;
  }
}
