#include "smr/workload.h"

namespace hds::smr {

namespace {
constexpr std::int64_t kKeySpace = 256;  // keys are drawn uniformly from [0, kKeySpace)
}  // namespace

WorkloadDriver::WorkloadDriver(WorkloadConfig cfg, std::size_t replica)
    : cfg_(cfg), replica_(replica) {
  clients_.reserve(cfg_.clients);
  for (std::size_t c = 0; c < cfg_.clients; ++c) {
    clients_.push_back(Client{
        Rng::derived(cfg_.seed, replica * kClientStride + c), 1, 0, 0});
  }
}

SmrOp WorkloadDriver::make_op(std::size_t c, SimTime now) {
  Client& cl = clients_[c];
  SmrOp op;
  op.client = static_cast<std::uint64_t>(replica_) * kClientStride + c;
  op.seq = cl.next_seq++;
  op.key = cl.rng.uniform(0, kKeySpace - 1);
  op.val = cl.rng.uniform(1, 1'000'000);
  op.pad.assign(cfg_.op_size, static_cast<std::uint8_t>(op.seq & 0xFF));
  cl.inflight_seq = op.seq;
  cl.submitted_at = now;
  return op;
}

std::vector<SmrOp> WorkloadDriver::start(SimTime now) {
  std::vector<SmrOp> out;
  if (stopped_) return out;
  out.reserve(clients_.size());
  for (std::size_t c = 0; c < clients_.size(); ++c) out.push_back(make_op(c, now));
  return out;
}

std::optional<SmrOp> WorkloadDriver::on_applied(std::uint64_t client, std::int64_t seq,
                                                SimTime now) {
  const std::uint64_t base = static_cast<std::uint64_t>(replica_) * kClientStride;
  if (client < base || client >= base + clients_.size()) return std::nullopt;
  Client& cl = clients_[client - base];
  if (cl.inflight_seq == 0 || seq < cl.inflight_seq) return std::nullopt;  // stale duplicate
  latencies_.push_back(now - cl.submitted_at);
  ++ops_done_;
  cl.inflight_seq = 0;
  if (stopped_) return std::nullopt;
  return make_op(client - base, now);
}

}  // namespace hds::smr
