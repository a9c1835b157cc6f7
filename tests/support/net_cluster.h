// In-process NetSystem cluster: one NetSystem per identifier, all in this
// process, each with its own UDP socket on an ephemeral loopback port and
// its own node/recv/sender threads. The real-concurrency test substrate:
// several NetSystems exchange real datagrams without fork/exec.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/net_system.h"
#include "net/udp.h"
#include "obs/metrics.h"

namespace hds::testing {

struct NetCluster {
  std::vector<std::unique_ptr<net::NetSystem>> sys;

  // ids[i] is the (possibly homonymous) identifier of node i. `metrics`, if
  // set, instruments node 0 only.
  explicit NetCluster(const std::vector<Id>& ids, std::uint64_t seed = 1, bool batching = true,
                      obs::MetricsRegistry* metrics = nullptr, bool reliable = false) {
    const std::size_t n = ids.size();
    std::vector<net::NetPeer> peers(n);
    for (std::size_t i = 0; i < n; ++i) peers[i].id = ids[i];
    for (std::size_t i = 0; i < n; ++i) {
      net::NetConfig cfg;
      cfg.self = i;
      cfg.peers = peers;  // ports resolved below, once every socket is bound
      cfg.seed = seed + i;
      cfg.batching = batching;
      cfg.reliability.enabled = reliable;
      if (i == 0) cfg.metrics = metrics;
      sys.push_back(std::make_unique<net::NetSystem>(std::move(cfg)));
    }
    for (auto& s : sys) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j == s->self()) continue;  // own endpoint was fixed at bind time
        s->set_peer_endpoint(j, net::UdpEndpoint{"127.0.0.1", sys[j]->local_port()});
      }
    }
  }

  bool barrier() {
    bool ok = true;
    for (auto& s : sys) ok = s->await_peers(std::chrono::seconds(5)) && ok;
    return ok;
  }

  void start_all() {
    for (auto& s : sys) s->start();
  }

  ~NetCluster() {
    for (auto& s : sys) s->stop();
  }
};

}  // namespace hds::testing
