// The process an hds_node runs for each --stack, and the interposer it
// installs for --loss. Shared with the virtual-time replay tests
// (tests/node_core_test.cpp), so they run exactly what a cluster node runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/link_fault.h"
#include "common/rng.h"
#include "common/types.h"
#include "consensus/majority_homega.h"
#include "consensus/quorum_homega_hsigma.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/impl/ohp_polling.h"
#include "sim/stacked_process.h"
#include "smr/replica.h"

namespace hds::node {

// Symmetric Bernoulli loss on every inter-node copy. Seeded and internally
// synchronized per the LinkInterposer contract. REL_ACK and retransmission
// copies are judged like any other traffic — the ARQ layer has to survive
// losing its own acks too.
class SymmetricLoss final : public LinkInterposer {
 public:
  SymmetricLoss(double p, std::uint64_t seed) : p_(p), rng_(seed) {}

  CopyVerdict on_copy(SimTime, ProcIndex from, ProcIndex to, const std::string&) override {
    if (from == to) return {};
    std::lock_guard<std::mutex> lk(mu_);
    CopyVerdict v;
    v.drop = rng_.chance(p_);
    return v;
  }

 private:
  double p_;
  std::mutex mu_;
  Rng rng_;
};

// The --loss interposer's seed, derived from the node's seed.
inline std::uint64_t loss_seed(std::uint64_t node_seed) { return node_seed ^ 0x10551055u; }

struct StackOptions {
  std::string stack = "fig8";  // fig6 | fig7 | fig8 | fig9 | smr
  std::size_t n = 0;
  ProcIndex self = 0;
  std::uint64_t seed = 1;
  Value proposal = 0;
  std::size_t t_known = 0;        // fig8's t parameter
  SimTime step_len_ms = 30;       // HΣ step length (fig7/fig9)
  SimTime redecide_ms = 0;        // fig8 DECIDE rebroadcast period; 0 = off
  std::size_t clients = 8;        // smr: closed-loop clients per node
  std::size_t op_size = 0;        // smr: payload padding bytes per op
  SimTime smr_batch_ms = 5;       // smr: leader flush period
  SimTime smr_ack_ms = 25;        // smr: cumulative ack period
  SimTime smr_lease_ms = 20;      // smr: HΩ lease re-evaluation period
};

// The assembled process and its components (null where the stack has none);
// the component pointers live as long as `process`.
struct NodeStack {
  std::unique_ptr<StackedProcess> process = std::make_unique<StackedProcess>();
  OHPPolling* ohp = nullptr;
  HSigmaComponent* hsig = nullptr;
  MajorityHOmegaConsensus* cons8 = nullptr;
  QuorumConsensus* cons9 = nullptr;
  smr::SmrReplica* smr = nullptr;
};

// Throws std::runtime_error on an unknown stack name.
inline NodeStack build_stack(const StackOptions& o) {
  NodeStack s;
  StackedProcess& p = *s.process;
  if (o.stack == "fig6") {
    s.ohp = p.add(std::make_unique<OHPPolling>());
  } else if (o.stack == "fig7") {
    s.hsig = p.add(std::make_unique<HSigmaComponent>(o.step_len_ms));
  } else if (o.stack == "fig8") {
    s.ohp = p.add(std::make_unique<OHPPolling>());
    MajorityConsensusConfig ccfg;
    ccfg.n = o.n;
    ccfg.t = o.t_known;
    ccfg.proposal = o.proposal;
    ccfg.guard_poll = 5;
    ccfg.redecide_interval_ms = o.redecide_ms;
    s.cons8 = p.add(std::make_unique<MajorityHOmegaConsensus>(ccfg, *s.ohp));
  } else if (o.stack == "fig9") {
    s.ohp = p.add(std::make_unique<OHPPolling>());
    s.hsig = p.add(std::make_unique<HSigmaComponent>(o.step_len_ms));
    s.cons9 = p.add(std::make_unique<QuorumConsensus>(QuorumConsensusConfig{o.proposal, 5},
                                                      *s.ohp, *s.hsig));
  } else if (o.stack == "smr") {
    s.ohp = p.add(std::make_unique<OHPPolling>());
    smr::SmrConfig scfg;
    scfg.n = o.n;
    scfg.t = o.t_known;
    scfg.replica = o.self;
    scfg.batch_interval = o.smr_batch_ms;
    scfg.ack_interval = o.smr_ack_ms;
    scfg.lease_poll = o.smr_lease_ms;
    scfg.guard_poll = 5;
    smr::WorkloadConfig wcfg;
    wcfg.clients = o.clients;
    wcfg.op_size = o.op_size;
    wcfg.seed = o.seed;
    s.smr = p.add(std::make_unique<smr::SmrReplica>(scfg, *s.ohp, wcfg));
  } else {
    throw std::runtime_error("config: unknown stack " + o.stack);
  }
  return s;
}

}  // namespace hds::node
