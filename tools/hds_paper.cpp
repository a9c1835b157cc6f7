// hds_paper — the paper's series as one checked table.
//
// The paper is a theory paper with no tables, so this reproduction's results
// are the series below: EXPERIMENTS.md's F1-F9 and A1 rows and its
// ablations. Each point is one seeded simulated run whose property check
// (the detector class, or Validity + Agreement + Termination) must hold.
// Every value is a simulated tick, a count or a 0/1 flag, so the output
// depends only on the seeds. The program takes no arguments and prints
// markdown, one section per series:
//
//   build/tools/hds_paper > docs/paper_series.md
//
// It exits 1, naming the run on stderr, when a property check fails. The
// `paper_series` ctest fails on that and on any byte of difference from the
// committed docs/paper_series.md.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "consensus/flood_sync.h"
#include "consensus/harness.h"
#include "consensus/messages.h"
#include "fd/impl/alive_ranker.h"
#include "fd/impl/homega_heartbeat.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/reduce/hsigma_to_sigma.h"
#include "fd/reduce/sigma_to_hsigma.h"
#include "sim/stacked_process.h"

namespace {

using namespace hds;

struct Cell {
  template <typename T>
  Cell(const char* name, T value) : name(name), value(static_cast<std::int64_t>(value)) {}
  const char* name;
  std::int64_t value;
};

// One point: its values in column order and its run's property check.
struct Point {
  std::vector<Cell> cells;
  CheckResult check;
};

using X = std::vector<std::int64_t>;  // one point's x values, one per axis
using Crashes = std::vector<std::optional<CrashPlan>>;

struct Series {
  const char* key;
  const char* artifact;  // the paper artifact and the measured axis
  const char* setup;     // what every point of the series shares
  std::vector<const char*> axes;
  std::vector<X> xs;
  Point (*run)(const X&);
};

PartialSyncTiming::Params partial_sync(SimTime gst, SimTime delta, double loss, SimTime delay) {
  PartialSyncTiming::Params net;
  net.gst = gst;
  net.delta = delta;
  net.pre_gst_loss = loss;
  net.pre_gst_max_delay = delay;
  return net;
}

// ------------------------------------------------ runs outside the harness

// The last instant a correct process's output was `bad`: from then on every
// correct output is good at every recorded point.
template <typename V, typename Bad>
SimTime settled_at(System& sys, const std::vector<const Trajectory<V>*>& traces, Bad bad) {
  SimTime settle = 0;
  for (ProcIndex i = 0; i < sys.n(); ++i) {
    if (!sys.is_correct(i)) continue;
    for (const auto& [t, v] : traces[i]->points()) {
      if (bad(v)) settle = std::max(settle, t);
    }
  }
  return settle;
}

// Figs. 1-2 over a Σ oracle stable at 100: the first instant every correct
// process holds a correct-only quorum (-1 if one never does).
Point sigma_to_hsigma(bool with_membership, std::size_t n) {
  SimRun run({.ids = ids_unique(n), .crashes = crashes_last_k(n, n / 3, 20), .observers = {}},
             std::make_unique<AsyncTiming>(1, 5), true);
  System& sys = run.sys();
  OracleSigma sigma(GroundTruth::from(sys), [&sys] { return sys.now(); }, 100);
  const std::set<Id> membership(sys.ids().begin(), sys.ids().end());
  std::vector<const Trajectory<HSigmaSnapshot>*> traces;
  const auto add = [&](ProcIndex i, auto red) {
    traces.push_back(&red->trace());
    sys.set_process(i, std::move(red));
  };
  for (ProcIndex i = 0; i < n; ++i) {
    if (with_membership) {
      add(i, std::make_unique<SigmaToHSigmaLocal>(sigma.handle(i), sys.id_of(i), membership));
    } else {
      add(i, std::make_unique<SigmaToHSigmaBcast>(sigma.handle(i)));
    }
  }
  sys.start();
  sys.run_until(500);
  const GroundTruth gt = GroundTruth::from(sys);
  SimTime live = -1;
  for (ProcIndex i = 0; i < n; ++i) {
    if (!sys.is_correct(i)) continue;
    const auto& pts = traces[i]->points();
    const auto first = std::find_if(pts.begin(), pts.end(), [&](const auto& pt) {
      return std::any_of(pt.second.quora.begin(), pt.second.quora.end(),
                         [&](const auto& q) { return q.second.is_subset_of(gt.correct_ids()); });
    });
    if (first == pts.end()) {
      live = -1;
      break;
    }
    live = std::max(live, first->first);
  }
  return {{{"live_time", live}, {"broadcasts", sys.net_stats().broadcasts}},
          check_hsigma(gt, traces)};
}

// Fig. 3: the instant from which every correct identifier keeps a rank
// <= |Correct| at every correct process.
Point alive_ranker(std::size_t n, std::size_t crashes, SimTime period, std::uint64_t seed) {
  SimRun run({.ids = ids_unique(n), .crashes = crashes_last_k(n, crashes, 40), .seed = seed,
              .observers = {}},
             std::make_unique<AsyncTiming>(1, 6));
  System& sys = run.sys();
  std::vector<const Trajectory<std::vector<Id>>*> traces;
  for (ProcIndex i = 0; i < n; ++i) {
    auto fd = std::make_unique<AliveRanker>(period);
    traces.push_back(&fd->trace());
    sys.set_process(i, std::move(fd));
  }
  sys.start();
  const SimTime run_for = 1500 + 20 * static_cast<SimTime>(n);
  sys.run_until(run_for);
  const GroundTruth gt = GroundTruth::from(sys);
  const Multiset<Id> correct = gt.correct_ids();
  const SimTime settle = settled_at(sys, traces, [&](const std::vector<Id>& list) {
    return std::any_of(correct.counts().begin(), correct.counts().end(), [&](const auto& c) {
      return rank_of(c.first, list) > gt.correct_count();
    });
  });
  return {{{"settle_time", settle}, {"broadcasts", sys.net_stats().broadcasts}},
          check_ranker(gt, traces, run_for, 100)};
}

// Fig. 4 over the real Fig. 7 adapter and Fig. 3 ranker: the instant from
// which every correct process's trusted set stays inside I(Correct).
Point hsigma_to_sigma(std::size_t n, std::size_t crashes, std::uint64_t seed) {
  SimRun run({.ids = ids_unique(n), .crashes = crashes_last_k(n, crashes, 25, 7), .seed = seed,
              .observers = {}},
             std::make_unique<BoundedTiming>(2));
  System& sys = run.sys();
  std::vector<const Trajectory<Multiset<Id>>*> traces;
  for (ProcIndex i = 0; i < n; ++i) {
    auto stack = std::make_unique<StackedProcess>();
    auto* src = stack->add(std::make_unique<HSigmaComponent>(3));
    auto* ranker = stack->add(std::make_unique<AliveRanker>(4));
    traces.push_back(&stack->add(std::make_unique<HSigmaToSigma>(*src, *ranker))->trace());
    sys.set_process(i, std::move(stack));
  }
  sys.start();
  const SimTime run_for = 1000 + 30 * static_cast<SimTime>(n);
  sys.run_until(run_for);
  const GroundTruth gt = GroundTruth::from(sys);
  const SimTime converge = settled_at(
      sys, traces, [&](const Multiset<Id>& v) { return !v.is_subset_of(gt.correct_ids()); });
  return {{{"converge_time", converge}, {"broadcasts", sys.net_stats().broadcasts}},
          check_sigma(gt, traces, run_for, 100)};
}

// HΩ from Fig. 6's polling or from the heartbeat extension, same run.
Point homega_cost(bool heartbeat, std::size_t n) {
  SimRun run({.ids = ids_homonymous(n, (n + 1) / 2, 7), .crashes = crashes_last_k(n, n / 4, 50, 9),
              .seed = 3, .observers = {}},
             std::make_unique<PartialSyncTiming>(partial_sync(80, 3, 0.2, 30)));
  System& sys = run.sys();
  std::vector<const Trajectory<HOmegaOut>*> traces;
  for (ProcIndex i = 0; i < n; ++i) {
    if (heartbeat) {
      auto fd = std::make_unique<HOmegaHeartbeat>(4);
      traces.push_back(&fd->trace());
      sys.set_process(i, std::move(fd));
    } else {
      auto fd = std::make_unique<OHPPolling>();
      traces.push_back(&fd->homega_trace());
      sys.set_process(i, std::move(fd));
    }
  }
  sys.start();
  sys.run_until(2500);
  return {{{"broadcasts", sys.net_stats().broadcasts}},
          check_homega(GroundTruth::from(sys), traces, 2500, 250)};
}

// A lock-step synchronous baseline (one tick per step) under one crash per
// step from step 0: the largest round a correct process decided in.
template <typename P, typename Make>
std::pair<Round, CheckResult> sync_baseline(std::size_t n, std::size_t t, SimTime steps,
                                            Make make) {
  SimRun run({.ids = ids_anonymous(n), .crashes = crashes_last_k(n, t, 0, 1), .observers = {}},
             std::make_unique<BoundedTiming>(1));
  System& sys = run.sys();
  const auto proposals = distinct_proposals(n);
  std::vector<P*> procs;
  for (ProcIndex i = 0; i < n; ++i) {
    auto p = make(proposals[i]);
    procs.push_back(p.get());
    sys.set_process(i, std::move(p));
  }
  sys.start();
  sys.run_until(steps);
  std::vector<DecisionRecord> decisions;
  Round max_round = 0;
  for (ProcIndex i = 0; i < n; ++i) {
    decisions.push_back(procs[i]->decision());
    if (sys.is_correct(i)) max_round = std::max(max_round, decisions[i].round);
  }
  return {max_round, check_consensus(GroundTruth::from(sys), proposals, decisions)};
}

// -------------------------------------------------------- harness runs

Fig6Result fig6(std::size_t n, std::size_t ell, SimTime gst, SimTime delta, std::size_t crashes,
                std::uint64_t seed) {
  Fig6Params p;
  p.ids = ids_homonymous(n, ell, seed + 17);
  p.crashes = crashes_last_k(n, crashes, gst / 2 + 10, 7);
  p.net = partial_sync(gst, delta, 0.3, 40);
  p.seed = seed;
  p.run_for = 4000 + 40 * static_cast<SimTime>(n) + 60 * delta;
  p.stable_window = 300;
  return run_fig6(p);
}

Point fig7(std::size_t n, std::size_t ell, std::size_t crashes, std::size_t stagger,
           std::uint64_t seed, bool with_messages) {
  Fig7Params p;
  p.ids = ids_homonymous(n, ell, seed + 29);
  p.crashes = crashes_last_k(n, crashes, 1, stagger, true);
  p.steps = 10 + crashes * stagger + 5;
  p.seed = seed;
  const Fig7Result r = run_fig7(p);
  if (with_messages) {
    return {{{"messages", r.messages}, {"liveness_step", r.liveness_step}}, r.check};
  }
  return {{{"liveness_step", r.liveness_step}, {"quora_stored", r.max_quora_stored}}, r.check};
}

Fig8OracleParams fig8(std::vector<Id> ids, std::size_t t, Crashes crashes, SimTime stab,
                      std::uint64_t seed) {
  Fig8OracleParams p;
  p.ids = std::move(ids);
  p.t_known = t;
  p.crashes = std::move(crashes);
  p.fd_stabilize = stab;
  p.seed = seed;
  return p;
}

Fig9OracleParams fig9(std::vector<Id> ids, Crashes crashes, SimTime homega_stab,
                      SimTime hsigma_stab, std::uint64_t seed) {
  Fig9OracleParams p;
  p.ids = std::move(ids);
  p.crashes = std::move(crashes);
  p.fd1_stabilize = homega_stab;
  p.fd2_stabilize = hsigma_stab;
  p.seed = seed;
  return p;
}

std::int64_t sent(const ConsensusRunResult& r, const char* type) {
  const auto it = r.broadcasts_by_type.find(type);
  return it == r.broadcasts_by_type.end() ? 0 : static_cast<std::int64_t>(it->second);
}

// The coordination phase is the part of Fig. 8 that homonymy adds.
Point fig8_cells(const ConsensusRunResult& r) {
  return {{{"decision_time", r.last_decision_time}, {"rounds", r.max_round},
           {"broadcasts", r.broadcasts}, {"copies", r.copies_delivered},
           {"coord_msgs", sent(r, kCoordType)}, {"ph1_msgs", sent(r, kPh1Type)}},
          r.check};
}

// Sub-round churn shows up as extra PH1Q/PH2Q broadcasts.
Point fig9_cells(const ConsensusRunResult& r) {
  return {{{"decision_time", r.last_decision_time}, {"rounds", r.max_round},
           {"sub_rounds", r.max_sub_round}, {"broadcasts", r.broadcasts},
           {"ph1q_msgs", sent(r, kPh1QType)}, {"ph2q_msgs", sent(r, kPh2QType)}},
          r.check};
}

Point with(Point p, Cell extra) {
  p.cells.push_back(extra);
  return p;
}

Point fig9_full(std::vector<Id> ids, Crashes crashes, SimTime delta, std::uint64_t seed,
                bool anonymous_ap_stack) {
  Fig9FullStackParams p;
  p.ids = std::move(ids);
  p.crashes = std::move(crashes);
  p.delta = delta;
  p.seed = seed;
  p.anonymous_ap_stack = anonymous_ap_stack;
  return fig9_cells(run_fig9_full_stack(p));
}

std::vector<Id> ids_or_anonymous(std::size_t n, std::int64_t ell, std::uint64_t seed) {
  return ell == 0 ? ids_anonymous(n) : ids_homonymous(n, ell, seed);
}

// ---------------------------------------------------------------- table

const std::vector<Series>& table() {
  static const std::vector<Series> series = {
      {"f1-membership", "Fig. 1, Thm. 1: Σ → HΣ with membership, vs n",
       "ids 1..n, n/3 crash at 20, AsyncTiming(1, 5), Σ oracle stable at 100, 500 ticks, seed 1",
       {"n"}, {{3}, {6}, {10}}, [](const X& x) { return sigma_to_hsigma(true, x[0]); }},
      {"f2-no-membership", "Fig. 2, Thm. 1: Σ → HΣ without membership, vs n", "as f1-membership",
       {"n"}, {{3}, {6}, {10}}, [](const X& x) { return sigma_to_hsigma(false, x[0]); }},
      {"f3-n", "Fig. 3: class S settle time vs n",
       "ids 1..n, n/3 crash at 40, AsyncTiming(1, 6), ALIVE every 5, 1500 + 20n ticks, seed 1",
       {"n"}, {{4}, {8}, {16}, {32}},
       [](const X& x) { return alive_ranker(x[0], x[0] / 3, 5, 1); }},
      {"f3-period", "Fig. 3: class S settle time vs resend period",
       "as f3-n with n = 8, 3 crashes, seed 2", {"period"}, {{2}, {5}, {10}, {25}},
       [](const X& x) { return alive_ranker(8, 3, x[0], 2); }},
      {"f4-n", "Fig. 4, Thm. 2: HΣ → Σ convergence vs n",
       "ids 1..n, Fig. 7 adapter (step 3) ▸ Fig. 3 (period 4) ▸ Fig. 4, BoundedTiming(2), "
       "n/3 crash at 25 + 7j, 1000 + 30n ticks, seed 1",
       {"n"}, {{3}, {5}, {8}, {12}},
       [](const X& x) { return hsigma_to_sigma(x[0], x[0] / 3, 1); }},
      {"f4-crashes", "Fig. 4, Thm. 2: HΣ → Σ convergence vs crash count",
       "as f4-n with n = 8, seed 2", {"crashes"}, {{0}, {2}, {5}},
       [](const X& x) {
         Point p = hsigma_to_sigma(8, x[0], 2);
         p.cells.pop_back();  // converge_time only
         return p;
       }},
      {"f6-delta", "Fig. 6, Thm. 5: ◇HP̄ stabilization vs δ",
       "n = 6, ℓ = 3, GST 100, pre-GST loss 0.3 and delay ≤ 40, 2 crash at GST/2 + 10 + 7j, "
       "4000 + 40n + 60δ ticks, stable window 300, seed 1",
       {"delta"}, {{1}, {2}, {4}, {8}, {16}},
       [](const X& x) {
         const Fig6Result r = fig6(6, 3, 100, x[0], 2, 1);
         return Point{{{"stab_time", r.stabilization_time}, {"final_timeout", r.max_final_timeout},
                       {"broadcasts", r.broadcasts}},
                      r.ohp_check};
       }},
      {"f6-gst", "Fig. 6, Thm. 5: ◇HP̄ stabilization vs GST", "as f6-delta with δ = 3, seed 2",
       {"gst"}, {{0}, {50}, {200}, {800}},
       [](const X& x) {
         const Fig6Result r = fig6(6, 3, x[0], 3, 2, 2);
         const SimTime stab = r.stabilization_time;
         return Point{{{"stab_time", stab}, {"stab_minus_gst", stab - x[0]}}, r.ohp_check};
       }},
      {"f6-n", "Fig. 6: stabilization and message volume vs n",
       "as f6-delta with ℓ = ⌈n/2⌉, GST 80, δ = 3, n/4 crashes, seed 3",
       {"n"}, {{3}, {6}, {12}, {24}, {48}},
       [](const X& x) {
         const Fig6Result r = fig6(x[0], (x[0] + 1) / 2, 80, 3, x[0] / 4, 3);
         return Point{{{"stab_time", r.stabilization_time}, {"broadcasts", r.broadcasts},
                       {"copies_delivered", r.copies_delivered}},
                      r.ohp_check};
       }},
      {"f6-ell", "Fig. 6, Cor. 2: stabilization vs homonymy degree ℓ",
       "as f6-delta with n = 12, GST 80, δ = 3, 3 crashes, seed 4", {"ell"},
       {{1}, {2}, {4}, {8}, {12}},
       [](const X& x) {
         const Fig6Result r = fig6(12, x[0], 80, 3, 3, 4);
         return Point{{{"stab_time", r.stabilization_time}, {"homega_ok", r.homega_check.ok}},
                      r.ohp_check};
       }},
      {"f6-heartbeat", "Extension: HΩ by Fig. 6 polling (0) or heartbeats (1), vs n",
       "ℓ = ⌈n/2⌉, GST 80, δ = 3, pre-GST loss 0.2 and delay ≤ 30, n/4 crash at 50 + 9j, "
       "heartbeat period 4, 2500 ticks, seed 3",
       {"heartbeat", "n"}, {{0, 6}, {1, 6}, {0, 12}, {1, 12}, {0, 24}, {1, 24}},
       [](const X& x) { return homega_cost(x[0] != 0, x[1]); }},
      {"f7-crashes", "Fig. 7, Thm. 6: HΣ liveness step vs crash cascade",
       "n = 10, ℓ = 5, crashes at step 1 + 2j (partial broadcasts), 15 + 2·crashes steps, seed 1",
       {"crashes"}, {{0}, {2}, {5}, {9}},
       [](const X& x) { return fig7(10, 5, x[0], 2, 1, false); }},
      {"f7-n", "Fig. 7: messages and liveness step vs n",
       "ℓ = ⌈n/2⌉, n/3 crashes at step 1 + j, seed 2", {"n"}, {{4}, {8}, {16}, {32}},
       [](const X& x) { return fig7(x[0], (x[0] + 1) / 2, x[0] / 3, 1, 2, true); }},
      {"f7-ell", "Fig. 7: liveness step vs homonymy degree ℓ",
       "n = 12, 4 crashes at step 1 + j, seed 3", {"ell"}, {{1}, {3}, {6}, {12}},
       [](const X& x) { return fig7(12, x[0], 4, 1, 3, false); }},
      {"f8-n", "Fig. 8, Thm. 7: consensus over an HΩ oracle, vs n",
       "ℓ = ⌈n/2⌉, t = ⌊(n−1)/2⌋ crash at 20 + 9j, HΩ stable at 60, seed 1", {"n"},
       {{3}, {5}, {9}, {17}, {33}},
       [](const X& x) {
         const std::size_t n = x[0], t = (n - 1) / 2;
         return fig8_cells(run_fig8_with_oracle(
             fig8(ids_homonymous(n, (n + 1) / 2, 5), t, crashes_last_k(n, t, 20, 9), 60, 1)));
       }},
      {"f8-ell", "Fig. 8, Thm. 7: consensus vs homonymy degree ℓ",
       "n = 9, t = 4, 3 crash at 25 + 9j, HΩ stable at 60, seed 2", {"ell"},
       {{1}, {2}, {4}, {9}},
       [](const X& x) {
         return fig8_cells(run_fig8_with_oracle(
             fig8(ids_homonymous(9, x[0], 7), 4, crashes_last_k(9, 3, 25, 9), 60, 2)));
       }},
      {"f8-stab", "Fig. 8, Thm. 7: decision vs HΩ stabilization time",
       "n = 7, ℓ = 3, t = 3, 2 crash at 15 + 9j, seed 3", {"stab"}, {{0}, {50}, {200}, {800}},
       [](const X& x) {
         const auto r = run_fig8_with_oracle(
             fig8(ids_homonymous(7, 3, 3), 3, crashes_last_k(7, 2, 15, 9), x[0], 3));
         return with(fig8_cells(r), {"decision_minus_stab", r.last_decision_time - x[0]});
       }},
      {"f8-crashes", "Fig. 8, Thm. 7: consensus vs crash count",
       "n = 11, ℓ = 5, t = 5, crashes at 15 + 11j, HΩ stable at 60, seed 4", {"crashes"},
       {{0}, {1}, {3}, {5}},
       [](const X& x) {
         return fig8_cells(run_fig8_with_oracle(
             fig8(ids_homonymous(11, 5, 9), 5, crashes_last_k(11, x[0], 15, 11), 60, 4)));
       }},
      {"f8-full-gst", "Fig. 6 ▸ Cor. 2 ▸ Fig. 8 in HPS[t < n/2]: decision vs GST",
       "n = 5, ℓ = 2, t = 2, 2 crash at GST/2 + 5 + 13j, δ = 3, pre-GST delay ≤ 40, no loss, "
       "seed 2",
       {"gst"}, {{0}, {100}, {400}, {1600}},
       [](const X& x) {
         Fig8FullStackParams p;
         p.ids = ids_homonymous(5, 2, 7);
         p.t_known = 2;
         p.crashes = crashes_last_k(5, 2, x[0] / 2 + 5, 13);
         p.net = partial_sync(x[0], 3, 0.0, 40);
         p.seed = 2;
         const auto r = run_fig8_full_stack(p);
         return with(fig8_cells(r), {"decision_minus_gst", r.last_decision_time - x[0]});
       }},
      {"f9-crashes", "Fig. 9, Thm. 8: consensus with up to n − 1 crashes",
       "n = 8, ℓ = 4, crashes at 15 + 9j, HΩ stable at 60, HΣ at 90, seed 1", {"crashes"},
       {{0}, {2}, {4}, {7}},
       [](const X& x) {
         return fig9_cells(run_fig9_with_oracle(
             fig9(ids_homonymous(8, 4, 3), crashes_last_k(8, x[0], 15, 9), 60, 90, 1)));
       }},
      {"f9-n", "Fig. 9, Thm. 8: consensus vs n",
       "ℓ = ⌈n/2⌉, n/2 crash at 20 + 7j, HΩ stable at 60, HΣ at 80, seed 2", {"n"},
       {{3}, {5}, {9}, {17}},
       [](const X& x) {
         const std::size_t n = x[0];
         return fig9_cells(run_fig9_with_oracle(fig9(ids_homonymous(n, (n + 1) / 2, 5),
                                                     crashes_last_k(n, n / 2, 20, 7), 60, 80, 2)));
       }},
      {"f9-stab", "Fig. 9, Thm. 8: decision vs HΣ stabilization time",
       "n = 6, ℓ = 3, 3 crash at 10 + 5j, HΩ stable at 30, seed 3", {"stab"},
       {{0}, {100}, {400}, {1600}},
       [](const X& x) {
         const auto r = run_fig9_with_oracle(
             fig9(ids_homonymous(6, 3, 9), crashes_last_k(6, 3, 10, 5), 30, x[0], 3));
         return with(fig9_cells(r), {"decision_minus_stab", r.last_decision_time - x[0]});
       }},
      {"f9-full-sync", "Fig. 6 + Fig. 7 adapter ▸ Fig. 9 under synchrony, vs n",
       "ℓ = ⌈n/2⌉, n − 2 crash at 37 + 11j, δ = 3, seed 8", {"n"}, {{3}, {5}, {8}, {12}},
       [](const X& x) {
         const std::size_t n = x[0];
         return fig9_full(ids_homonymous(n, (n + 1) / 2, 7), crashes_last_k(n, n - 2, 37, 11), 3,
                          8, false);
       }},
      {"f9-anon-ap", "AP ▸ Lemmas 2-3 ▸ Obs. 1 ▸ Fig. 9, anonymous, vs n",
       "every id ⊥, n/2 crash at 29 + 7j, δ = 2, seed 13", {"n"}, {{3}, {6}, {10}},
       [](const X& x) {
         const std::size_t n = x[0];
         return fig9_full(ids_anonymous(n), crashes_last_k(n, n / 2, 29, 7), 2, 13, true);
       }},
      {"a1-sync-baselines", "§1 price of anonymity: synchronous baselines vs t",
       "n = 10, every id ⊥, one crash per step from step 0, FloodMin for t + 4 steps, the "
       "AP-style early stopper for 2t + 8, seed 1",
       {"t"}, {{0}, {2}, {4}, {8}},
       [](const X& x) {
         const std::size_t t = x[0];
         const auto flood = sync_baseline<FloodMinSync>(
             10, t, t + 4, [&](Value v) { return std::make_unique<FloodMinSync>(v, t); });
         const auto ap = sync_baseline<ApStabilitySync>(
             10, t, 2 * t + 8, [&](Value v) { return std::make_unique<ApStabilitySync>(v); });
         return Point{{{"floodmin_rounds", flood.first}, {"apstab_rounds", ap.first}},
                      flood.second.ok ? ap.second : flood.second};
       }},
      {"a1-fig8-ell", "§1 price of anonymity: Fig. 8 across the homonymy spectrum",
       "n = 9, ℓ = 0 means every id ⊥, t = 4, 4 crash at 20 + 9j, HΩ stable at 80, seed 1",
       {"ell"}, {{0}, {2}, {4}, {9}},
       [](const X& x) {
         const auto r = run_fig8_with_oracle(
             fig8(ids_or_anonymous(9, x[0], 3), 4, crashes_last_k(9, 4, 20, 9), 80, 1));
         return Point{{{"rounds", r.max_round}, {"decision_time", r.last_decision_time},
                       {"broadcasts", r.broadcasts}},
                      r.check};
       }},
      {"a1-fig9-ell", "§1 price of anonymity: Fig. 9 across the homonymy spectrum",
       "n = 9, ℓ = 0 means every id ⊥, 6 crash at 20 + 9j, HΩ stable at 80, HΣ at 110, seed 1",
       {"ell"}, {{0}, {2}, {4}, {9}},
       [](const X& x) {
         const auto r = run_fig9_with_oracle(
             fig9(ids_or_anonymous(9, x[0], 3), crashes_last_k(9, 6, 20, 9), 80, 110, 1));
         return Point{{{"rounds", r.max_round}, {"sub_rounds", r.max_sub_round},
                       {"decision_time", r.last_decision_time}},
                      r.check};
       }},
      {"a1-aomega", "Closing remark of §5: Fig. 9 in AAS[AΩ, HΣ], vs n",
       "every id ⊥, n/2 crash at 20 + 9j, AΩ stable at 80, HΣ at 110, seed 1", {"n"},
       {{5}, {9}},
       [](const X& x) {
         Fig9AnonOmegaParams p;
         p.n = x[0];
         p.crashes = crashes_last_k(p.n, p.n / 2, 20, 9);
         p.aomega_stabilize = 80;
         p.fd2_stabilize = 110;
         const auto r = run_fig9_anon_aomega(p);
         return Point{{{"rounds", r.max_round}, {"decision_time", r.last_decision_time}},
                      r.check};
       }},
      {"ab-coord", "Ablation: Fig. 8 without (1) or with (0) the coordination phase, vs ℓ",
       "n = 6, t = 2, no crashes, HΩ stable at 50, 40,000 ticks, seed 7; a run that does not "
       "decide is reported, one that decides must be safe",
       {"skip_coord", "ell"}, {{0, 1}, {1, 1}, {0, 2}, {1, 2}, {0, 6}, {1, 6}},
       [](const X& x) {
         Fig8OracleParams p = fig8(ids_homonymous(6, x[1], 3), 2, {}, 50, 7);
         p.max_time = 40'000;
         p.skip_coordination_phase = x[0] != 0;
         const auto r = run_fig8_with_oracle(p);
         return Point{{{"decided", r.all_correct_decided}, {"rounds", r.max_round},
                       {"decision_time", r.last_decision_time}},
                      r.all_correct_decided ? r.check : CheckResult::pass()};
       }},
      {"ab-timeout", "Ablation: Fig. 6 with an adaptive (1) or frozen (0) timeout, vs δ",
       "ids 1..4, GST 0, initial timeout 2, 8000 ticks, stable window 400, seed 1; "
       "convergence is reported, not required",
       {"adaptive", "delta"}, {{1, 2}, {0, 2}, {1, 8}, {0, 8}, {1, 16}, {0, 16}},
       [](const X& x) {
         Fig6Params p;
         p.ids = ids_unique(4);
         p.net = partial_sync(0, x[1], 0.0, 1);
         p.fd_opts = {.initial_timeout = 2, .adaptive_timeout = x[0] != 0};
         p.run_for = 8000;
         p.stable_window = 400;
         const Fig6Result r = run_fig6(p);
         return Point{{{"converged", r.ohp_check.ok}, {"stab_time", r.stabilization_time},
                       {"final_timeout", r.max_final_timeout}},
                      CheckResult::pass()};
       }},
      {"ab-guard-poll", "Ablation: guard-poll period of the event-driven Fig. 9",
       "n = 6, ℓ = 3, 3 crash at 10 + 5j, HΩ stable at 60, HΣ at 90, seed 2", {"poll"},
       {{1}, {4}, {16}, {64}},
       [](const X& x) {
         Fig9OracleParams p = fig9(ids_homonymous(6, 3, 5), crashes_last_k(6, 3, 10, 5), 60, 90, 2);
         p.guard_poll = x[0];
         const auto r = run_fig9_with_oracle(p);
         return Point{{{"decision_time", r.last_decision_time}, {"broadcasts", r.broadcasts}},
                      r.check};
       }},
      {"ab-alpha", "Footnote 5: Fig. 8 with α = ⌊n/2⌋ + 1 (1) or exact n − t (0), vs n",
       "ℓ = ⌈n/2⌉, t = ⌊(n−1)/2⌋ crash at 20 + 7j, HΩ stable at 60, seed 3",
       {"alpha", "n"}, {{0, 5}, {1, 5}, {0, 9}, {1, 9}, {0, 17}, {1, 17}},
       [](const X& x) {
         const std::size_t n = x[1], t = (n - 1) / 2;
         Fig8OracleParams p = fig8(ids_homonymous(n, (n + 1) / 2, 5), x[0] != 0 ? 0 : t,
                                   crashes_last_k(n, t, 20, 7), 60, 3);
         if (x[0] != 0) p.alpha = n / 2 + 1;
         const auto r = run_fig8_with_oracle(p);
         return Point{{{"decision_time", r.last_decision_time}, {"rounds", r.max_round}},
                      r.check};
       }},
  };
  return series;
}

}  // namespace

int main() {
  int status = 0;
  std::puts(
      "# The paper's series\n\n"
      "Generated by `build/tools/hds_paper > docs/paper_series.md`; the `paper_series`\n"
      "ctest fails when the program's output differs from this file. Each row is one\n"
      "seeded simulated run whose property check held. Every value is a simulated\n"
      "tick, a count or a 0/1 flag, so the table depends only on the seeds.\n"
      "EXPERIMENTS.md reads the paper's claims against it, citing each series by key.\n"
      "Under each heading, ℓ is the number of distinct identifiers, \"k crash at\n"
      "a + bj\" means that the last k processes crash, the j-th of them (from 0) at\n"
      "a + bj, and tools/hds_paper.cpp gives every parameter.");
  for (const Series& s : table()) {
    std::printf("\n## `%s`: %s\n\n%s.\n\n", s.key, s.artifact, s.setup);
    for (const X& x : s.xs) {
      const Point p = s.run(x);
      if (&x == &s.xs.front()) {
        std::string names, rule;
        for (const char* a : s.axes) names += std::string("| ") + a + " ";
        for (const Cell& c : p.cells) names += std::string("| ") + c.name + " ";
        for (std::size_t i = 0; i < s.axes.size() + p.cells.size(); ++i) rule += "|---:";
        std::printf("%s|\n%s|\n", names.c_str(), rule.c_str());
      }
      std::string row;
      for (const std::int64_t v : x) row += "| " + std::to_string(v) + " ";
      for (const Cell& c : p.cells) row += "| " + std::to_string(c.value) + " ";
      std::printf("%s|\n", row.c_str());
      if (!p.check.ok) {
        std::fprintf(stderr, "hds_paper: %s %s: property violated: %s\n", s.key, row.c_str(),
                     p.check.detail.c_str());
        status = 1;
      }
    }
  }
  return status;
}
