// hds_node — one process of a real UDP deployment.
//
//   hds_node --config node.json
//
// The config (schema hds-node-config-v1, loaded with the same
// obs::load_json_file helper as hds_chaos/hds_report) describes the whole
// cluster and which slot this process occupies:
//
//   {
//     "schema": "hds-node-config-v1",
//     "self": 0,                       // index into peers
//     "stack": "fig8",                 // fig6 | fig7 | fig8 | fig9 | smr
//     "peers": [{"id": 1, "host": "127.0.0.1", "port": 9101}, ...],
//     "seed": 1,
//     "proposal": 100,                 // consensus stacks; default 100+self
//     "t_known": 1,                    // fig8's t parameter
//     "step_len_ms": 30,               // HΣ step length (fig7/fig9)
//     "run_for_ms": 2000,              // observation window (fig6/fig7)
//     "settle_ms": 750,                // fig6: report only after the ◊HΩ
//                                      // output was stable this long
//     "trace": false,                  // fig6: dump trusted/timeout traces
//     "max_time_ms": 60000,            // decision deadline (fig8/fig9)
//     "barrier_timeout_ms": 15000,
//     "linger_ms": 300,                // stay alive after deciding so
//                                      // laggard peers still hear us
//     "batching": true,                // coalesce frames per destination
//     "metrics_json": "node0_metrics.json",  // optional registry dump
//     "trace_capacity": 65536,         // > 0 enables causal tracing
//     "admin_host": "127.0.0.1",       // launcher telemetry sink; with
//     "admin_port": 9200,              // trace_capacity > 0 the node streams
//                                      // hds-telemetry-v1 deltas there
//     "telemetry_interval_ms": 200,    // delta cadence
//     "admin_listen_port": 0,          // serve hds-admin-v1 (STATS/STATUS)
//                                      // on this port; 0 = ephemeral, bound
//                                      // port announced via telemetry deltas;
//                                      // key absent = no admin server
//     "admin_port_file": "n0.port",    // optional: write the bound port here
//     "qos_window_ms": 250,            // streaming QoS sub-window width
//     "qos_windows": 8,                // ...and ring size
//     "profile": false,                // in-process profiler; collapsed
//     "profile_out": "n0.folded",      // stacks written here at exit
//     "reliable": false,               // per-link ARQ layer (net/reliable.h)
//     "loss": 0.0,                     // symmetric Bernoulli copy loss on
//                                      // every inter-node link (test rig)
//     "epoch": 0,                      // incarnation number; a supervised
//                                      // respawn gets epoch+1 and rejoins
//                                      // via REJOIN instead of HELLO
//     "redecide_ms": 250,              // fig8 DECIDE rebroadcast period so
//                                      // a respawned slot still terminates;
//                                      // defaults to 250 when reliable,
//                                      // else 0 (off)
//     "clients": 8,                    // smr: closed-loop clients per node
//     "op_size": 0,                    // smr: payload padding bytes per op
//     "smr_batch_ms": 5,               // smr: leader flush period
//     "smr_ack_ms": 25,                // smr: cumulative ack period
//     "smr_lease_ms": 20               // smr: HΩ lease re-evaluation period
//   }
//
// On success the last stdout line is a one-line result JSON
// (schema hds-node-result-v1); the cluster launcher parses it.
// Exit: 0 result produced, 1 run failed (no decision / barrier timeout),
// 2 usage or config error. A barrier timeout still flushes a final
// telemetry delta so the launcher gets partial accounting from a wedged
// slot.
#include <atomic>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/admin.h"
#include "net/net_system.h"
#include "net/udp.h"
#include "node_stack.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/prom.h"
#include "obs/telemetry.h"
#include "obs/window_qos.h"
#include "smr/harness.h"

namespace {

using hds::obs::Json;
using namespace std::chrono_literals;

struct NodeOptions {
  hds::net::NetConfig net;
  hds::node::StackOptions stack;  // n, self and seed are filled from `net`
  hds::SimTime run_for_ms = 2000;
  hds::SimTime settle_ms = 750;
  bool trace = false;
  hds::SimTime max_time_ms = 60000;
  hds::SimTime barrier_timeout_ms = 15000;
  hds::SimTime linger_ms = 300;
  std::string metrics_json;
  std::string admin_host = "127.0.0.1";
  std::uint16_t admin_port = 0;  // 0 = no telemetry uplink
  hds::SimTime telemetry_interval_ms = 200;
  bool admin_listen = false;            // serve hds-admin-v1?
  std::uint16_t admin_listen_port = 0;  // 0 = ephemeral
  std::string admin_port_file;
  hds::SimTime qos_window_ms = 250;
  std::size_t qos_windows = 8;
  bool profile = false;
  std::string profile_out;
  double loss = 0.0;
};

NodeOptions parse_config(const Json& cfg) {
  if (cfg.string_or("schema", "") != "hds-node-config-v1") {
    throw std::runtime_error("config: expected schema hds-node-config-v1");
  }
  NodeOptions o;
  o.net.self = static_cast<hds::ProcIndex>(cfg.number_or("self", 0));
  const Json* peers = cfg.find("peers");
  if (peers == nullptr || !peers->is_array() || peers->items().empty()) {
    throw std::runtime_error("config: peers array required");
  }
  for (const Json& p : peers->items()) {
    hds::net::NetPeer peer;
    peer.id = static_cast<hds::Id>(p.number_or("id", 0));
    peer.ep.host = p.string_or("host", "127.0.0.1");
    peer.ep.port = static_cast<std::uint16_t>(p.number_or("port", 0));
    o.net.peers.push_back(peer);
  }
  if (o.net.self >= o.net.peers.size()) throw std::runtime_error("config: self out of range");
  o.net.seed = static_cast<std::uint64_t>(cfg.number_or("seed", 1));
  if (const Json* b = cfg.find("batching")) o.net.batching = b->boolean();
  o.stack.stack = cfg.string_or("stack", "fig8");
  o.stack.n = o.net.peers.size();
  o.stack.self = o.net.self;
  o.stack.seed = o.net.seed;
  o.stack.proposal =
      static_cast<hds::Value>(cfg.number_or("proposal", 100 + static_cast<double>(o.net.self)));
  o.stack.t_known = static_cast<std::size_t>(cfg.number_or("t_known", 0));
  o.stack.step_len_ms = static_cast<hds::SimTime>(cfg.number_or("step_len_ms", 30));
  o.run_for_ms = static_cast<hds::SimTime>(cfg.number_or("run_for_ms", 2000));
  o.settle_ms = static_cast<hds::SimTime>(cfg.number_or("settle_ms", 750));
  if (const Json* tr = cfg.find("trace")) o.trace = tr->boolean();
  o.max_time_ms = static_cast<hds::SimTime>(cfg.number_or("max_time_ms", 60000));
  o.barrier_timeout_ms =
      static_cast<hds::SimTime>(cfg.number_or("barrier_timeout_ms", 15000));
  o.linger_ms = static_cast<hds::SimTime>(cfg.number_or("linger_ms", 300));
  o.metrics_json = cfg.string_or("metrics_json", "");
  o.net.trace_capacity = static_cast<std::size_t>(cfg.number_or("trace_capacity", 0));
  o.admin_host = cfg.string_or("admin_host", "127.0.0.1");
  o.admin_port = static_cast<std::uint16_t>(cfg.number_or("admin_port", 0));
  o.telemetry_interval_ms =
      static_cast<hds::SimTime>(cfg.number_or("telemetry_interval_ms", 200));
  if (const Json* ap = cfg.find("admin_listen_port")) {
    o.admin_listen = true;
    o.admin_listen_port = static_cast<std::uint16_t>(ap->integer());
  }
  o.admin_port_file = cfg.string_or("admin_port_file", "");
  o.qos_window_ms = static_cast<hds::SimTime>(cfg.number_or("qos_window_ms", 250));
  o.qos_windows = static_cast<std::size_t>(cfg.number_or("qos_windows", 8));
  if (const Json* pr = cfg.find("profile")) o.profile = pr->boolean();
  o.profile_out = cfg.string_or("profile_out", "");
  if (const Json* rel = cfg.find("reliable")) o.net.reliability.enabled = rel->boolean();
  o.loss = cfg.number_or("loss", 0.0);
  if (o.loss < 0.0 || o.loss >= 1.0) throw std::runtime_error("config: loss must be in [0, 1)");
  o.net.epoch = static_cast<std::uint64_t>(cfg.number_or("epoch", 0));
  o.stack.redecide_ms = static_cast<hds::SimTime>(
      cfg.number_or("redecide_ms", o.net.reliability.enabled ? 250 : 0));
  o.stack.clients = static_cast<std::size_t>(cfg.number_or("clients", 8));
  o.stack.op_size = static_cast<std::size_t>(cfg.number_or("op_size", 0));
  o.stack.smr_batch_ms = static_cast<hds::SimTime>(cfg.number_or("smr_batch_ms", 5));
  o.stack.smr_ack_ms = static_cast<hds::SimTime>(cfg.number_or("smr_ack_ms", 25));
  o.stack.smr_lease_ms = static_cast<hds::SimTime>(cfg.number_or("smr_lease_ms", 20));
  return o;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Json stats_json(const hds::net::NetNetworkStats& s) {
  Json j = Json::object();
  j["broadcasts"] = s.broadcasts;
  j["copies_sent"] = s.copies_sent;
  j["copies_delivered"] = s.copies_delivered;
  j["copies_lost_link"] = s.copies_lost_link;
  j["bytes_sent"] = s.bytes_sent;
  j["bytes_received"] = s.bytes_received;
  j["packets_sent"] = s.packets_sent;
  j["packets_received"] = s.packets_received;
  j["decode_errors"] = s.decode_errors;
  return j;
}

Json rel_stats_json(const hds::net::RelStats& r) {
  Json j = Json::object();
  j["data_sent"] = r.data_sent;
  j["retransmits"] = r.retransmits;
  j["acked"] = r.acked;
  j["window_drops"] = r.window_drops;
  j["reorder_drops"] = r.reorder_drops;
  j["acks_sent"] = r.acks_sent;
  j["acks_received"] = r.acks_received;
  j["dup_frames"] = r.dup_frames;
  j["out_of_order"] = r.out_of_order;
  j["skipped_lost"] = r.skipped_lost;
  j["delivered"] = r.delivered;
  j["stale_epoch_drops"] = r.stale_epoch_drops;
  j["epoch_flushes"] = r.epoch_flushes;
  j["requeued"] = r.requeued;
  return j;
}

int run(const NodeOptions& o) {
  const auto proc_start = std::chrono::steady_clock::now();
  hds::obs::MetricsRegistry metrics;
  hds::obs::MetricsRegistry* metrics_ptr = &metrics;
  if (o.profile) hds::obs::Profiler::instance().enable();

  // Streaming QoS over the local FD output. Ground truth on a live cluster
  // is "everyone in the config, nobody crashes": detection latency stays
  // inert and the mistake estimator reads as raw suspicion activity, while
  // the flap and quorum-margin windows are fully meaningful. Declared before
  // the system so the FD components never outlive their listener.
  hds::obs::WindowQosConfig qcfg;
  for (const hds::net::NetPeer& peer : o.net.peers) {
    qcfg.gt.ids.push_back(peer.id);
    qcfg.gt.correct.push_back(true);
  }
  const std::vector<hds::Id> all_node_ids = qcfg.gt.ids;
  qcfg.width = o.qos_window_ms;
  qcfg.windows = o.qos_windows;
  qcfg.metrics = metrics_ptr;
  hds::obs::WindowQos wq(std::move(qcfg));

  hds::net::NetConfig net_cfg = o.net;
  net_cfg.metrics = metrics_ptr;
  hds::net::NetSystem sys(std::move(net_cfg));
  const std::size_t n = sys.n();
  const hds::ProcIndex self = sys.self();

  // Loss rig: installed before any data-plane traffic so every copy —
  // first sends, ARQ retransmits, standalone acks — rolls the same dice.
  // HELLO/REJOIN barrier probes bypass interposers by design, so the
  // cluster still forms under heavy loss.
  std::unique_ptr<hds::node::SymmetricLoss> loss;
  if (o.loss > 0.0) {
    loss = std::make_unique<hds::node::SymmetricLoss>(o.loss, hds::node::loss_seed(o.net.seed));
    sys.set_interposer(loss.get());
  }

  // Assemble the selected stack. Raw pointers stay valid: the system owns
  // the StackedProcess, which owns its components.
  hds::node::NodeStack built = hds::node::build_stack(o.stack);
  hds::OHPPolling* ohp = built.ohp;
  hds::HSigmaComponent* hsig = built.hsig;
  hds::MajorityHOmegaConsensus* cons8 = built.cons8;
  hds::QuorumConsensus* cons9 = built.cons9;
  hds::smr::SmrReplica* smr = built.smr;
  if (ohp != nullptr) ohp->attach_metrics(metrics_ptr);
  if (hsig != nullptr) hsig->attach_metrics(metrics_ptr);
  if (cons8 != nullptr) cons8->attach_metrics(metrics_ptr);
  if (cons9 != nullptr) cons9->attach_metrics(metrics_ptr);
  if (smr != nullptr) smr->attach_metrics(metrics_ptr);
  if (ohp != nullptr) ohp->set_output_listener(wq.listener(self));
  if (hsig != nullptr) hsig->set_output_listener(wq.listener(self));
  sys.set_process(std::move(built.process));

  // Pull-side health plane: the hds-admin-v1 STATS/STATUS service hds_top
  // polls. STATS is the Prometheus exposition of the full registry (window
  // QoS gauges refreshed first); STATUS is a JSON summary of FD/consensus
  // state. Handlers run on the admin thread; anything touching protocol
  // state goes through sys.query, which is only safe once the node thread
  // runs — before that, STATUS says so and skips the query.
  std::atomic<bool> node_started{false};
  hds::net::AdminServer admin;
  const auto admin_handler = [&](const std::string& verb,
                                 const hds::obs::Json&) -> std::string {
    if (verb == "STATS") {
      (void)wq.stats();  // refresh the qos_window_* gauges
      return hds::obs::prometheus_text(metrics.snapshot());
    }
    if (verb != "STATUS") throw std::runtime_error("unknown verb " + verb);
    Json st = Json::object();
    st["schema"] = "hds-node-status-v1";
    st["self"] = self;
    st["id"] = sys.id_of(self);
    st["stack"] = o.stack.stack;
    st["epoch"] = sys.epoch();
    st["reliable"] = sys.reliable();
    const bool started = node_started.load(std::memory_order_acquire);
    st["running"] = started;
    st["uptime_ms"] = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - proc_start)
                          .count();
    if (started && ohp != nullptr) {
      struct FdObs {
        hds::HOmegaOut lead;
        hds::Multiset<hds::Id> trusted;
        hds::Round round;
        hds::SimTime timeout;
      };
      const FdObs f = sys.query([&](hds::Process&) {
        return FdObs{ohp->h_omega(), ohp->h_trusted(), ohp->round(), ohp->timeout()};
      });
      st["leader"] = f.lead.leader;
      st["multiplicity"] = f.lead.multiplicity;
      Json tr = Json::array();
      for (const auto& [id, count] : f.trusted.counts()) {
        for (std::size_t k = 0; k < count; ++k) tr.push_back(id);
      }
      st["trusted"] = tr;
      // Suspected = configured identity multiset minus the trusted output.
      hds::Multiset<hds::Id> all(all_node_ids.begin(), all_node_ids.end());
      Json susp = Json::array();
      for (const auto& [id, count] : all.counts()) {
        const std::size_t have = f.trusted.multiplicity(id);
        for (std::size_t k = have; k < count; ++k) susp.push_back(id);
      }
      st["suspected"] = susp;
      st["poll_round"] = f.round;
      st["poll_timeout_ms"] = f.timeout;
    }
    if (started && (cons8 != nullptr || cons9 != nullptr)) {
      const hds::DecisionRecord d = sys.query([&](hds::Process&) {
        return cons8 != nullptr ? cons8->decision() : cons9->decision();
      });
      st["decided"] = d.decided;
      if (d.decided) {
        st["value"] = d.value;
        st["round"] = d.round;
      }
    }
    if (started && hsig != nullptr) {
      const hds::HSigmaSnapshot snap =
          sys.query([&](hds::Process&) { return hsig->snapshot(); });
      st["hsigma_labels"] = snap.labels.size();
      st["hsigma_quora"] = snap.quora.size();
    }
    if (started && smr != nullptr) {
      struct SmrObs {
        bool leading;
        std::int64_t epoch;
        std::int64_t committed;
        std::int64_t applied;
        std::uint64_t ops_applied;
        std::uint64_t ops_done;
        std::uint64_t batches;
        std::uint64_t log_hash;
        double p50;
        double p99;
      };
      const SmrObs s = sys.query([&](hds::Process&) {
        // Running commit-latency percentiles over every op this node's
        // clients have completed so far — the hds_top panel charts them.
        const std::vector<hds::SimTime>& lats = smr->workload().latencies();
        return SmrObs{smr->leading(),      smr->current_epoch(),
                      smr->committed_through(), smr->applied_through(),
                      smr->kv().ops_applied(),  smr->workload().ops_done(),
                      smr->batches_committed(), smr->kv().log_hash(),
                      hds::smr::latency_quantile(lats, 0.50),
                      hds::smr::latency_quantile(lats, 0.99)};
      });
      Json sj = Json::object();
      sj["leading"] = s.leading;
      sj["epoch"] = s.epoch;
      sj["committed_through"] = s.committed;
      sj["applied_through"] = s.applied;
      sj["ops_applied"] = s.ops_applied;
      sj["ops_done"] = s.ops_done;
      sj["batches_committed"] = s.batches;
      sj["log_hash"] = hex64(s.log_hash);
      sj["latency_p50"] = s.p50;
      sj["latency_p99"] = s.p99;
      st["smr"] = std::move(sj);
    }
    st["qos"] = wq.json();
    if (sys.trace_enabled()) st["trace_dropped"] = sys.trace_dropped();
    return st.dump();
  };
  if (o.admin_listen) {
    admin.start(hds::net::UdpEndpoint{"0.0.0.0", o.admin_listen_port}, admin_handler);
    std::cerr << "hds_node[" << self << "]: admin channel on port " << admin.port() << "\n";
    if (!o.admin_port_file.empty()) {
      hds::obs::write_text_file(o.admin_port_file, std::to_string(admin.port()) + "\n");
    }
  }

  // Telemetry uplink: with tracing on and an admin endpoint configured, the
  // node streams hds-telemetry-v1 deltas (trace events recorded since the
  // previous delta, plus ring-drop accounting) to the launcher over its own
  // UDP socket — fire-and-forget, like the data plane.
  const bool telemetry_on = o.admin_port != 0 && sys.trace_enabled();
  const hds::net::UdpEndpoint admin_ep{o.admin_host, o.admin_port};
  hds::net::UdpSocket admin_sock;
  if (telemetry_on) admin_sock.open(hds::net::UdpEndpoint{"127.0.0.1", 0});
  std::uint64_t tele_seq = 0;
  std::uint64_t trace_cursor = 0;
  hds::SimTime hello_done_ms = -1;
  const auto send_delta = [&](std::vector<hds::TraceEvent> evs, bool final_flush,
                              std::string metrics_snapshot) {
    hds::obs::TelemetryDelta d;
    d.node = self;
    d.id = sys.id_of(self);
    d.seq = tele_seq;
    d.final_flush = final_flush;
    d.epoch_wall_us = sys.epoch_wall_us();
    d.hello_done_ms = hello_done_ms;
    d.admin_port = admin.running() ? admin.port() : 0;
    d.dropped = sys.trace_dropped();
    d.events = std::move(evs);
    d.metrics_json = std::move(metrics_snapshot);
    for (const hds::obs::TelemetryDelta& c : hds::obs::chunk_telemetry_delta(d)) {
      const std::string text = hds::obs::telemetry_delta_to_json(c).dump();
      admin_sock.send_to(admin_ep, reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size());
      ++tele_seq;
    }
  };

  std::cerr << "hds_node[" << self << "]: bound " << o.net.peers[self].ep.host << ":"
            << sys.local_port() << ", awaiting " << (n - 1) << " peer(s)\n";
  // Pre-barrier announcement: even if this slot is later killed while the
  // barrier is still forming, the launcher has its epoch and identity.
  if (telemetry_on) send_delta({}, false, {});
  if (!sys.await_peers(std::chrono::milliseconds(o.barrier_timeout_ms))) {
    std::cerr << "hds_node[" << self << "]: peer barrier timed out\n";
    // Partial telemetry: the launcher still learns this slot's epoch and
    // whatever the trace captured before the barrier wedged.
    if (telemetry_on) send_delta(sys.drain_trace(trace_cursor), true, metrics.to_json());
    return 1;
  }
  const auto wall_us = [] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::system_clock::now().time_since_epoch())
        .count();
  };
  hello_done_ms = (wall_us() - sys.epoch_wall_us()) / 1000;
  const auto t0 = std::chrono::steady_clock::now();
  sys.start();
  node_started.store(true, std::memory_order_release);

  std::atomic<bool> tele_stop{false};
  std::thread tele_thread;
  if (telemetry_on) {
    // Epoch/barrier announcement, then periodic deltas from a dedicated
    // thread until the run winds down.
    send_delta({}, false, {});
    tele_thread = std::thread([&] {
      while (!tele_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(o.telemetry_interval_ms));
        send_delta(sys.drain_trace(trace_cursor), false, {});
      }
    });
  }

  Json result = Json::object();
  result["schema"] = "hds-node-result-v1";
  result["stack"] = o.stack.stack;
  result["self"] = self;
  result["id"] = sys.id_of(self);
  bool ok = true;

  if (cons8 != nullptr || cons9 != nullptr) {
    const auto decided = [&] {
      return sys.query([&](hds::Process&) {
        return cons8 != nullptr ? cons8->decision() : cons9->decision();
      });
    };
    ok = sys.wait_for([&] { return decided().decided; },
                      std::chrono::milliseconds(o.max_time_ms), 10ms);
    const hds::DecisionRecord d = decided();
    result["decided"] = d.decided;
    if (d.decided) {
      result["value"] = d.value;
      result["round"] = d.round;
    }
    if (!ok) std::cerr << "hds_node[" << self << "]: no decision within deadline\n";
    // Keep the substrate up briefly so peers still mid-protocol hear our
    // final phase/DECIDE messages (UDP has no retransmission).
    if (ok && o.linger_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(o.linger_ms));
  } else if (smr != nullptr) {
    // Replicated log: closed-loop client load for run_for_ms, then quiesce
    // until the local log settles (applied caught up with committed and the
    // (frontier, hash) pair stable for settle_ms), linger so every peer
    // drains too, and report the post-linger state. The launcher compares
    // frontiers and hashes ACROSS nodes; a node alone can only certify
    // that it stopped moving.
    std::this_thread::sleep_for(std::chrono::milliseconds(o.run_for_ms));
    sys.query([&](hds::Process&) {
      smr->stop_workload();
      return 0;
    });
    struct SmrObs {
      std::int64_t committed;
      std::int64_t applied;
      std::uint64_t log_hash;
      bool operator==(const SmrObs&) const = default;
    };
    const auto observe = [&] {
      return sys.query([&](hds::Process&) {
        return SmrObs{smr->committed_through(), smr->applied_through(), smr->kv().log_hash()};
      });
    };
    const auto deadline = t0 + std::chrono::milliseconds(o.max_time_ms);
    const auto settle = [&](std::chrono::steady_clock::time_point until) {
      SmrObs cur = observe();
      auto last_change = std::chrono::steady_clock::now();
      auto now = last_change;
      bool settled = false;
      while (!settled && now < until) {
        std::this_thread::sleep_for(25ms);
        now = std::chrono::steady_clock::now();
        const SmrObs next = observe();
        if (!(next == cur)) last_change = now;
        cur = next;
        settled = cur.applied == cur.committed && cur.applied > 0 &&
                  now - last_change >= std::chrono::milliseconds(o.settle_ms);
      }
      return std::make_pair(cur, settled);
    };
    if (!settle(deadline).second)
      std::cerr << "hds_node[" << self << "]: log did not settle\n";
    // A local lull is not cluster quiescence: under load (or with a
    // respawned peer whose run window ends later) commits keep trickling
    // after this node first holds still, and a result frozen now could be
    // an earlier — still consistent — prefix than a peer's. The linger is
    // the cross-node drain barrier (peers reach theirs within a
    // barrier-skew), so hold it with the substrate up, then re-settle and
    // report the POST-linger state.
    if (o.linger_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(o.linger_ms));
    const auto [cur, settled] =
        settle(std::max(deadline, std::chrono::steady_clock::now() +
                                      std::chrono::milliseconds(4 * o.settle_ms)));
    ok = settled;
    if (!settled) std::cerr << "hds_node[" << self << "]: log did not re-settle after linger\n";
    const auto fin = sys.query([&](hds::Process&) {
      return std::make_tuple(smr->kv().state_hash(), smr->kv().ops_applied(),
                             smr->workload().ops_done(), smr->batches_committed(),
                             smr->epochs_started(), smr->leading(), smr->current_epoch(),
                             smr->repair_appends_sent(), smr->recovery_instances());
    });
    result["applied_through"] = cur.applied;
    result["committed_through"] = cur.committed;
    result["log_hash"] = hex64(cur.log_hash);
    result["state_hash"] = hex64(std::get<0>(fin));
    result["ops_applied"] = std::get<1>(fin);
    result["ops_done"] = std::get<2>(fin);
    result["batches_committed"] = std::get<3>(fin);
    result["epochs_started"] = std::get<4>(fin);
    result["leading"] = std::get<5>(fin);
    result["smr_epoch"] = std::get<6>(fin);
    result["repair_appends"] = std::get<7>(fin);
    result["recovery_instances"] = std::get<8>(fin);
    result["settled"] = settled;
  } else if (ohp != nullptr) {
    // ◊HΩ only promises *eventual* leader agreement; on a real-jitter
    // substrate an instantaneous snapshot can catch a one-round flap while
    // the adaptive timeout is still tuning, so peers would compare
    // transients. Observe for run_for_ms, then keep sampling until the
    // output has held still for settle_ms (or max_time_ms expires).
    struct Obs {
      hds::HOmegaOut lead;
      hds::Multiset<hds::Id> trusted;
      hds::Round round;
      hds::SimTime timeout;
    };
    const auto observe = [&] {
      return sys.query([&](hds::Process&) {
        return Obs{ohp->h_omega(), ohp->h_trusted(), ohp->round(), ohp->timeout()};
      });
    };
    const auto min_end = t0 + std::chrono::milliseconds(o.run_for_ms);
    const auto deadline = t0 + std::chrono::milliseconds(o.max_time_ms);
    Obs cur = observe();
    auto last_change = std::chrono::steady_clock::now();
    auto now = last_change;
    bool settled = false;
    while (!settled && now < deadline) {
      std::this_thread::sleep_for(25ms);
      now = std::chrono::steady_clock::now();
      Obs next = observe();
      if (next.lead.leader != cur.lead.leader ||
          next.lead.multiplicity != cur.lead.multiplicity ||
          !(next.trusted == cur.trusted)) {
        last_change = now;
      }
      cur = std::move(next);
      settled = now >= min_end && now - last_change >= std::chrono::milliseconds(o.settle_ms);
    }
    ok = settled;
    if (!settled) std::cerr << "hds_node[" << self << "]: h_omega did not settle\n";
    result["leader"] = cur.lead.leader;
    result["multiplicity"] = cur.lead.multiplicity;
    result["settled"] = settled;
    result["stable_ms"] =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - last_change).count();
    result["poll_round"] = cur.round;
    result["poll_timeout_ms"] = cur.timeout;
    Json tr = Json::array();
    for (const auto& [id, count] : cur.trusted.counts()) {
      for (std::size_t k = 0; k < count; ++k) tr.push_back(id);
    }
    result["trusted"] = tr;
    if (o.trace) {
      const auto traces = sys.query([&](hds::Process&) {
        return std::make_pair(ohp->trusted_trace().points(), ohp->timeout_trace().points());
      });
      Json tt = Json::array();
      for (const auto& [t, v] : traces.first) {
        Json e = Json::object();
        e["t"] = t;
        Json ids = Json::array();
        for (const auto& [id, count] : v.counts()) {
          for (std::size_t k = 0; k < count; ++k) ids.push_back(id);
        }
        e["trusted"] = ids;
        tt.push_back(e);
      }
      result["trusted_trace"] = tt;
      Json ot = Json::array();
      for (const auto& [t, v] : traces.second) {
        Json e = Json::object();
        e["t"] = t;
        e["timeout"] = v;
        ot.push_back(e);
      }
      result["timeout_trace"] = ot;
    }
    // Peers finish their own observation windows up to a barrier-skew +
    // sample-period later than we do. Stay up and keep answering polls so a
    // peer mid-observation doesn't watch us vanish (its instantaneous
    // h_trusted would collapse to [self] right at its snapshot).
    if (o.linger_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(o.linger_ms));
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(o.run_for_ms));
    if (hsig != nullptr) {
      const hds::HSigmaSnapshot snap = sys.query([&](hds::Process&) { return hsig->snapshot(); });
      result["labels"] = snap.labels.size();
      result["quora"] = snap.quora.size();
      ok = !snap.quora.empty();
    }
    // Same shutdown courtesy as fig6: peers may still be observing.
    if (o.linger_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(o.linger_ms));
  }

  result["elapsed_ms"] = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (telemetry_on) {
    tele_stop.store(true, std::memory_order_relaxed);
    tele_thread.join();
    send_delta(sys.drain_trace(trace_cursor), true, metrics.to_json());
  }
  // Admin goes down before the node thread: a STATUS mid-teardown must not
  // post a query the stopped loop would never answer.
  if (o.admin_listen) {
    result["admin_port"] = admin.port();
    admin.stop();
  }
  sys.stop();
  result["stats"] = stats_json(sys.net_stats());
  result["epoch"] = sys.epoch();
  if (sys.reliable()) result["rel"] = rel_stats_json(sys.rel_stats());
  if (sys.trace_enabled()) result["trace_dropped"] = sys.trace_dropped();

  if (o.profile) {
    // Once per run: emit() increments counters, so a second call would
    // double-count. The registry dump below then carries the profile.
    hds::obs::Profiler::instance().emit(metrics_ptr);
    if (!o.profile_out.empty()) {
      hds::obs::write_text_file(o.profile_out,
                                hds::obs::Profiler::instance().collapsed_stacks());
    }
    result["profiled"] = true;
  }
  if (!o.metrics_json.empty()) {
    hds::obs::write_text_file(o.metrics_json, metrics.to_json());
  }
  std::cout << result.dump() << "\n";
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) {
      config_path = argv[++i];
    } else {
      std::cerr << "usage: hds_node --config FILE.json\n";
      return 2;
    }
  }
  if (config_path.empty()) {
    std::cerr << "usage: hds_node --config FILE.json\n";
    return 2;
  }
  try {
    return run(parse_config(hds::obs::load_json_file(config_path)));
  } catch (const std::exception& e) {
    std::cerr << "hds_node: " << e.what() << "\n";
    return 2;
  }
}
