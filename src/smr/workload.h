// Closed-loop client workload driver.
//
// Each simulated client keeps exactly one operation outstanding: it submits,
// waits until its replica *applies* the op (commit + apply is the client's
// ack), records the end-to-end latency, and immediately submits the next.
// Throughput is therefore load-generated the way a saturated service sees
// it: clients / commit-latency, not an open-loop firehose.
//
// Determinism: op streams are pure functions of (seed, replica, client) via
// the derived-RNG convention, so a run is reproducible across substrates
// and job counts.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "smr/types.h"

namespace hds::smr {

struct WorkloadConfig {
  std::size_t clients = 8;  // closed-loop clients at this replica
  std::size_t op_size = 0;  // payload padding bytes per op
  std::uint64_t seed = 1;
};

// Client identifiers pack (replica index, client index); kClientStride keeps
// them globally unique across replicas.
inline constexpr std::uint64_t kClientStride = 1u << 20;

class WorkloadDriver {
 public:
  WorkloadDriver(WorkloadConfig cfg, std::size_t replica);

  // The initial op of every client (call once, at start).
  std::vector<SmrOp> start(SimTime now);

  // Notifies the driver that (client, seq) was applied at `now`. Returns
  // the client's next op while the driver is running, nullopt after stop()
  // or for ops this driver does not own.
  std::optional<SmrOp> on_applied(std::uint64_t client, std::int64_t seq, SimTime now);

  // Stops issuing new ops (quiesce phase); in-flight ops still complete.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  [[nodiscard]] std::uint64_t ops_done() const { return ops_done_; }
  // Completed-op latencies in local time units, in completion order.
  [[nodiscard]] const std::vector<SimTime>& latencies() const { return latencies_; }

 private:
  struct Client {
    Rng rng;
    std::int64_t next_seq = 1;
    std::int64_t inflight_seq = 0;  // 0 = nothing outstanding
    SimTime submitted_at = 0;
  };

  SmrOp make_op(std::size_t c, SimTime now);

  WorkloadConfig cfg_;
  std::size_t replica_;
  std::vector<Client> clients_;
  std::vector<SimTime> latencies_;
  std::uint64_t ops_done_ = 0;
  bool stopped_ = false;
};

}  // namespace hds::smr
