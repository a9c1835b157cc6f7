#include "smr/harness.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "fd/impl/ohp_polling.h"
#include "sim/stacked_process.h"

namespace hds::smr {

namespace {

obs::Labels proc_labels(ProcIndex i) { return {{"proc", std::to_string(i)}}; }

}  // namespace

double latency_quantile(std::vector<SimTime> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(v[lo]) + frac * static_cast<double>(v[hi] - v[lo]);
}

SmrSimResult run_smr_sim(const SmrSimParams& p) {
  const std::size_t n = p.ids.size();
  std::unique_ptr<TimingModel> timing;
  if (p.full_stack) {
    timing = std::make_unique<PartialSyncTiming>(p.net);
  } else {
    timing = std::make_unique<AsyncTiming>(kOracleAsyncMin, kOracleAsyncMax);
  }
  SimRun run(p, std::move(timing), /*oracle=*/!p.full_stack);
  System& sys = run.sys();

  std::optional<OracleHOmega> oracle;
  if (!p.full_stack) {
    oracle.emplace(GroundTruth::from(sys), [&sys] { return sys.now(); }, p.fd_stabilize, p.noise);
  }

  std::vector<SmrReplica*> reps(n);
  for (ProcIndex i = 0; i < n; ++i) {
    SmrConfig sc = p.smr;
    sc.n = n;
    sc.t = p.t;
    sc.replica = i;
    if (p.full_stack) {
      auto stack = std::make_unique<StackedProcess>();
      auto* fd = stack->add(std::make_unique<OHPPolling>());
      fd->attach_metrics(p.metrics, proc_labels(i));
      fd->set_output_listener(run.listener(i));
      auto rep = std::make_unique<SmrReplica>(sc, *fd, p.workload);
      rep->attach_metrics(p.metrics, proc_labels(i));
      reps[i] = stack->add(std::move(rep));
      sys.set_process(i, std::move(stack));
    } else {
      auto rep = std::make_unique<SmrReplica>(sc, oracle->handle(i), p.workload);
      rep->attach_metrics(p.metrics, proc_labels(i));
      reps[i] = rep.get();
      sys.set_process(i, std::move(rep));
    }
  }
  sys.start();

  sys.run_until((p.run_for * 3) / 4);
  for (SmrReplica* r : reps) r->stop_workload();
  sys.run_until(p.run_for);

  const auto correct_converged = [&] {
    bool first = true;
    std::int64_t frontier = 0;
    std::uint64_t hash = 0;
    for (ProcIndex i = 0; i < n; ++i) {
      if (!sys.is_correct(i)) continue;
      const SmrReplica& r = *reps[i];
      if (r.applied_through() != r.committed_through()) return false;
      if (first) {
        frontier = r.applied_through();
        hash = r.kv().log_hash();
        first = false;
      } else if (r.applied_through() != frontier || r.kv().log_hash() != hash) {
        return false;
      }
    }
    return !first;
  };
  const SimTime limit = std::max(p.max_time, p.run_for);
  while (sys.now() < limit && !correct_converged()) {
    sys.run_until(std::min(limit, sys.now() + 250));
  }
  run.finish();

  SmrSimResult res;
  res.converged = correct_converged();
  res.end_time = sys.now();
  res.broadcasts = sys.net_stats().broadcasts;
  res.broadcasts_by_type = sys.net_stats().broadcasts_by_type;

  std::vector<SimTime> lats;
  for (ProcIndex i = 0; i < n; ++i) {
    const SmrReplica& r = *reps[i];
    SmrReplicaStats st;
    st.correct = sys.is_correct(i);
    st.leading = r.leading();
    st.committed_through = r.committed_through();
    st.applied_through = r.applied_through();
    st.log_hash = r.kv().log_hash();
    st.state_hash = r.kv().state_hash();
    st.ops_done = r.workload().ops_done();
    st.ops_applied = r.kv().ops_applied();
    st.ops_deduped = r.kv().ops_deduped();
    st.batches_committed = r.batches_committed();
    st.appends_sent = r.appends_sent();
    st.repair_appends_sent = r.repair_appends_sent();
    st.acks_sent = r.acks_sent();
    st.epochs_started = r.epochs_started();
    st.recovery_instances = r.recovery_instances();
    st.engines_created = r.instances().engines_created();
    st.records_gced = r.instances().records_gced();
    st.applied_chain = r.applied_chain();
    st.latencies = r.workload().latencies();
    if (st.correct) {
      res.ops_total += st.ops_done;
      lats.insert(lats.end(), st.latencies.begin(), st.latencies.end());
    }
    res.replicas.push_back(std::move(st));
  }
  if (res.end_time > 0) {
    res.ops_per_ktick =
        static_cast<double>(res.ops_total) * 1000.0 / static_cast<double>(res.end_time);
  }
  res.latency_p50 = latency_quantile(lats, 0.50);
  res.latency_p99 = latency_quantile(lats, 0.99);

  // Safety half: every pair of replicas (crashed included) agrees on the
  // common prefix of the applied hash chain.
  for (std::size_t a = 0; a + 1 < res.replicas.size() && res.prefix_consistent; ++a) {
    for (std::size_t b = a + 1; b < res.replicas.size(); ++b) {
      const auto& ca = res.replicas[a].applied_chain;
      const auto& cb = res.replicas[b].applied_chain;
      const std::size_t common = std::min(ca.size(), cb.size());
      if (common > 0 && ca[common - 1] != cb[common - 1]) {
        res.prefix_consistent = false;
        break;
      }
    }
  }
  return res;
}

}  // namespace hds::smr
