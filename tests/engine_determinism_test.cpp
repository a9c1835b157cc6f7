// The hot-path rework's safety net: the calendar queue, the SBO Action, the
// broadcast fan-out grouping, and the parallel experiment engine must all be
// invisible — a run is a pure function of its config, pinned to committed
// digests and bit-identical across shard counts and -j. These tests pin that
// contract.
#include <gtest/gtest.h>

#include <memory>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/injector.h"
#include "chaos/runner.h"
#include "common/action.h"
#include "common/rng.h"
#include "consensus/harness.h"
#include "exp/runner.h"
#include "fd/impl/alive_ranker.h"
#include "net/codec.h"
#include "obs/monitor.h"
#include "obs/profiler.h"
#include "obs/qos.h"
#include "obs/trace_export.h"
#include "obs/window_qos.h"
#include "sim/event_queue.h"
#include "sim/system.h"
#include "smr/harness.h"

namespace hds {
namespace {

// ------------------------------------------------------------------ Action

TEST(Action, SmallCaptureStaysInline) {
  int hits = 0;
  Action a([&hits] { ++hits; });
  EXPECT_TRUE(a.is_inline());
  a();
  a();
  EXPECT_EQ(hits, 2);
}

TEST(Action, FanoutShapedCaptureStaysInline) {
  // The shape Network::broadcast schedules: {pointer, shared_ptr, vector}.
  auto shared = std::make_shared<int>(7);
  std::vector<std::uint32_t> tos{1, 2, 3};
  int* sink = new int(0);
  Action a([sink, shared, tos = std::move(tos)]() mutable { *sink += static_cast<int>(tos.size()) * *shared; });
  EXPECT_TRUE(a.is_inline());
  a();
  EXPECT_EQ(*sink, 21);
  delete sink;
}

TEST(Action, OversizedCaptureGoesToHeapAndStillRuns) {
  struct Big {
    char pad[96] = {};
    int* out;
  };
  int result = 0;
  Big big;
  big.out = &result;
  Action a([big] { *big.out = 42; });
  EXPECT_FALSE(a.is_inline());
  Action b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  b();
  EXPECT_EQ(result, 42);
}

TEST(Action, MoveTransfersInlineState) {
  int hits = 0;
  Action a([&hits] { ++hits; });
  Action b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  Action c;
  c = std::move(b);
  c();
  EXPECT_EQ(hits, 2);
}

// ------------------------------------------------- queue order equivalence

// The order oracle: a binary heap over (time, lane, push seq). The push seq
// only breaks ties between identical lanes, which the lane scheme never
// produces within one queue.
class BinaryHeapQueue {
 public:
  [[nodiscard]] bool empty() const { return queue_.empty(); }

  void push(SimTime t, Lane lane, Action fn) {
    queue_.push(Ev{t, lane, next_seq_++, std::move(fn)});
  }

  [[nodiscard]] SimTime next_time() const { return queue_.top().at; }

  Action pop(SimTime& t, Lane& lane) {
    // priority_queue::top() is const; the action is move-only, so cast away
    // const for the extraction (the element is popped immediately after).
    Ev& top = const_cast<Ev&>(queue_.top());
    t = top.at;
    lane = top.lane;
    Action out = std::move(top.fn);
    queue_.pop();
    return out;
  }

 private:
  struct Ev {
    SimTime at;
    Lane lane;
    std::uint64_t seq;
    Action fn;
  };
  struct Later {
    bool operator()(const Ev& a, const Ev& b) const {
      if (a.at != b.at) return a.at > b.at;
      if (a.lane != b.lane) return a.lane > b.lane;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Ev, std::vector<Ev>, Later> queue_;
  std::uint64_t next_seq_ = 0;
};

// Drives one queue through a seeded adversarial push/pop sequence and
// returns what it observed: every pop as (time, lane) and every peek as
// (next_time, kPeek). Seed events are bursts at shared ticks plus outliers
// beyond the 1024-slot calendar window (the overflow map and window
// rebasing). Lanes are unique — a counter in the low bits — but arrive out
// of order — a random class in the high bits — so buckets need their lazy
// sort. After a pop, a peek may walk the calendar cursor forward before a
// push lands back in the tick being drained; that push takes the top class,
// which keeps its lane above the one just executed, as sim/lane.h requires.
constexpr Lane kPeek = ~Lane{0};

template <typename Queue>
std::vector<std::pair<SimTime, Lane>> drive_queue(std::uint64_t seed) {
  Queue q;
  Rng rng(seed);
  std::uint64_t uniq = 0;
  const auto lane = [&uniq](std::uint64_t cls) { return (cls << 40) | uniq++; };
  const auto random_class = [&rng] { return static_cast<std::uint64_t>(rng.uniform(0, 15)); };
  for (int k = 0; k < 400; ++k) {
    const SimTime at = rng.chance(0.1) ? rng.uniform(2000, 50'000) : rng.uniform(0, 60);
    q.push(at, lane(random_class()), Action{});
  }
  std::vector<std::pair<SimTime, Lane>> seen;
  while (!q.empty()) {
    SimTime t = 0;
    Lane l = 0;
    q.pop(t, l);
    seen.emplace_back(t, l);
    if (!q.empty() && rng.chance(0.5)) seen.emplace_back(q.next_time(), kPeek);
    if (seen.size() < 3000 && rng.chance(0.5)) {
      if (rng.chance(0.2)) {
        q.push(t, lane(0xFFFF), Action{});
      } else {
        q.push(t + rng.uniform(1, 1500), lane(random_class()), Action{});
      }
    }
  }
  return seen;
}

TEST(QueueEquivalence, CalendarMatchesHeapOrder) {
  for (const std::uint64_t seed : {1ull, 7ull, 99ull, 12345ull}) {
    const auto cal = drive_queue<CalendarQueue>(seed);
    const auto heap = drive_queue<BinaryHeapQueue>(seed);
    ASSERT_GT(cal.size(), 400u);
    EXPECT_EQ(cal, heap) << "divergence at seed " << seed;
  }
}

// ------------------------------------------------------------ golden trace

// Mixed traffic: a codec-registered type (ALIVE, so the byte meter meters
// real frame sizes) plus an unregistered one (PONG, memoized to 0 bytes).
struct Pinger final : Process {
  void on_start(Env& env) override {
    env.broadcast(make_message(AliveRanker::kMsgType, AliveMsg{env.self_id()}));
    env.set_timer(3);
  }
  void on_timer(Env& env, TimerId) override {
    env.broadcast(make_message(AliveRanker::kMsgType, AliveMsg{env.self_id()}));
    env.set_timer(3);
  }
  void on_message(Env& env, const Message& m) override {
    if (m.type == AliveRanker::kMsgType && env.local_now() % 2 == 0) {
      env.broadcast(make_message("PONG", 0));
    }
  }
};

struct RunFingerprint {
  std::string trace;
  std::string metrics;
  NetworkStats stats;
};

// FNV-1a, 64-bit: a stable digest for pinning golden bytes in the source.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string stats_text(const NetworkStats& s) {
  std::string out;
  for (const std::uint64_t v :
       {s.broadcasts, s.copies_sent, s.copies_delivered, s.copies_lost_link,
        s.copies_lost_dying_sender, s.copies_duplicated, s.copies_to_dead, s.bytes_sent,
        s.bytes_received, static_cast<std::uint64_t>(s.latency_sum),
        static_cast<std::uint64_t>(s.latency_max)}) {
    out += std::to_string(v) + " ";
  }
  for (const auto& [type, count] : s.broadcasts_by_type) {
    out += type + "=" + std::to_string(count) + " ";
  }
  return out;
}

RunFingerprint run_pinger_system(std::size_t trace_capacity = 1 << 16) {
  obs::MetricsRegistry reg;
  SystemConfig cfg;
  cfg.ids = {1, 2, 2, 3, 3, 3};
  cfg.crashes.resize(6);
  cfg.crashes[4] = CrashPlan{40, true};
  cfg.crashes[5] = CrashPlan{25, false};
  cfg.timing = std::make_unique<AsyncTiming>(1, 5);
  cfg.seed = 424242;
  cfg.trace_capacity = trace_capacity;
  cfg.metrics = &reg;
  System sys(std::move(cfg));
  for (ProcIndex i = 0; i < 6; ++i) sys.set_process(i, std::make_unique<Pinger>());
  sys.start();
  sys.run_until(120);
  RunFingerprint fp;
  fp.trace = sys.trace().dump(1 << 16);
  fp.metrics = reg.to_json();
  fp.stats = sys.net_stats();
  return fp;
}

// The committed digests were captured while the reference binary heap was
// still an engine back end next to the calendar queue, and both produced
// these bytes. The standard library's distributions are implementation-
// defined, so the digests are those of a libstdc++ build.
TEST(GoldenTrace, SystemRunMatchesCommittedDigest) {
  // The full event log, every metric series, and every network counter of a
  // homonymous mixed-traffic run with a clean and a dying-broadcast crash —
  // byte for byte.
  const RunFingerprint fp = run_pinger_system();
  EXPECT_EQ(stats_text(fp.stats),
            "640 3840 2970 0 11 0 759 13464 10200 8860 5 ALIVE=187 PONG=453 ");
  EXPECT_EQ(fnv1a(fp.trace), 0x4f0a87884d6bae34ull);
  EXPECT_EQ(fnv1a(fp.metrics), 0x81ee62ec1193bbafull);
}

TEST(GoldenTrace, CausalTracingOnOffLeavesScheduleMetricsAndStatsIdentical) {
  // Causal stamping must be pure instrumentation: it never touches the RNG,
  // the queue, or the byte meter, so every metric series and every network
  // counter is byte-identical with the trace ring on or off.
  const RunFingerprint on = run_pinger_system(1 << 16);
  const RunFingerprint off = run_pinger_system(0);
  EXPECT_FALSE(on.trace.empty());
  EXPECT_TRUE(off.trace.empty());
  EXPECT_EQ(on.metrics, off.metrics);
  EXPECT_EQ(on.stats.broadcasts, off.stats.broadcasts);
  EXPECT_EQ(on.stats.copies_sent, off.stats.copies_sent);
  EXPECT_EQ(on.stats.copies_delivered, off.stats.copies_delivered);
  EXPECT_EQ(on.stats.copies_lost_link, off.stats.copies_lost_link);
  EXPECT_EQ(on.stats.copies_lost_dying_sender, off.stats.copies_lost_dying_sender);
  EXPECT_EQ(on.stats.copies_to_dead, off.stats.copies_to_dead);
  EXPECT_EQ(on.stats.bytes_sent, off.stats.bytes_sent);
  EXPECT_EQ(on.stats.bytes_received, off.stats.bytes_received);
  EXPECT_EQ(on.stats.latency_sum, off.stats.latency_sum);
  EXPECT_EQ(on.stats.broadcasts_by_type, off.stats.broadcasts_by_type);
}

TEST(GoldenTrace, Fig6QosJsonIsIdenticalWithTracingOnOrOff) {
  // The full-stack equivalent of the pin above: detector QoS — detection
  // times, mistake intervals, leader settling — must not move when a run is
  // recorded.
  const auto fingerprint = [](std::size_t trace_capacity) {
    Fig6Params p;
    p.ids = ids_homonymous(6, 3, 5);
    p.crashes = crashes_last_k(6, 2, /*at=*/300, /*stagger=*/40);
    p.net.gst = 500;
    p.net.delta = 3;
    p.net.pre_gst_loss = 0.2;
    p.net.pre_gst_max_delay = 6;
    p.seed = 5;
    p.run_for = 2000;
    p.collect_qos = true;
    p.trace_capacity = trace_capacity;
    const Fig6Result r = run_fig6(p);
    return obs::qos_json(r.qos).dump(2);
  };
  EXPECT_EQ(fingerprint(0), fingerprint(1 << 16));
}

TEST(GoldenTrace, MemoizedByteMeterMatchesFullCodecComputation) {
  // One ALIVE broadcast from process 0 reaches all 3 peers with no loss;
  // bytes_sent must be exactly 3 full v1 frames as the unmemoized
  // encoded_frame_size computes them.
  struct OneShot final : Process {
    void on_start(Env& env) override {
      env.broadcast(make_message(AliveRanker::kMsgType, AliveMsg{env.self_id()}));
    }
    void on_message(Env&, const Message&) override {}
  };
  struct Quiet final : Process {
    void on_start(Env&) override {}
    void on_message(Env&, const Message&) override {}
  };
  SystemConfig cfg;
  cfg.ids = {41, 42, 43};
  cfg.timing = std::make_unique<AsyncTiming>(1, 1);
  cfg.seed = 3;
  System sys(std::move(cfg));
  sys.set_process(0, std::make_unique<OneShot>());
  sys.set_process(1, std::make_unique<Quiet>());
  sys.set_process(2, std::make_unique<Quiet>());
  sys.start();
  sys.run_until(10);
  const Message m = make_message(AliveRanker::kMsgType, AliveMsg{41});
  const auto frame = net::encoded_frame_size(net::builtin_codecs(), m, 0, 41);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(sys.net_stats().bytes_sent, 3 * *frame);
  EXPECT_EQ(sys.net_stats().bytes_received, 3 * *frame);
}

TEST(GoldenTrace, Fig6QosJsonMatchesCommittedDigest) {
  // The full detector stack's QoS JSON — detection times, mistake
  // intervals, leader settling — pinned like the system run above.
  Fig6Params p;
  p.ids = ids_homonymous(6, 3, 5);
  p.crashes = crashes_last_k(6, 2, /*at=*/300, /*stagger=*/40);
  p.net.gst = 500;
  p.net.delta = 3;
  p.net.pre_gst_loss = 0.2;
  p.net.pre_gst_max_delay = 6;
  p.seed = 5;
  p.run_for = 2000;
  p.collect_qos = true;
  const std::string json = obs::qos_json(run_fig6(p).qos).dump(2);
  EXPECT_EQ(json.size(), 2614u);
  EXPECT_EQ(fnv1a(json), 0x49e5f9aff2a837dfull);
}

TEST(GoldenTrace, HealthPlaneOnOffLeavesScheduleMetricsAndQosIdentical) {
  // The live health plane — window-QoS listeners teed into every detector
  // plus the in-process profiler timing the hot path — is pure observation:
  // no RNG draws, no extra events, no metric the plain run would not have
  // written. A run with the whole plane attached must fingerprint exactly
  // like a bare one.
  const auto fingerprint = [](bool health_plane) {
    Fig6Params p;
    p.ids = ids_homonymous(6, 3, 5);
    p.crashes = crashes_last_k(6, 2, /*at=*/300, /*stagger=*/40);
    p.net.gst = 500;
    p.net.delta = 3;
    p.net.pre_gst_loss = 0.2;
    p.net.pre_gst_max_delay = 6;
    p.seed = 5;
    p.run_for = 2000;
    p.collect_qos = true;
    obs::MetricsRegistry reg;
    p.metrics = &reg;
    std::unique_ptr<obs::WindowQos> wq;
    if (health_plane) {
      obs::WindowQosConfig wc;
      wc.gt = ground_truth_of(p.ids, p.crashes);
      wc.crash_at.assign(6, -1);
      for (std::size_t i = 0; i < p.crashes.size(); ++i) {
        if (p.crashes[i].has_value()) wc.crash_at[i] = p.crashes[i]->at;
      }
      wc.width = 250;
      wc.windows = 8;
      // Deliberately NOT wired into `reg`: the qos_window_* gauges are the
      // plane's own series; the fingerprint compares what the run itself
      // writes, which must not change.
      wq = std::make_unique<obs::WindowQos>(wc);
      p.observers = {wq.get()};
      obs::Profiler::instance().enable();
    }
    const Fig6Result r = run_fig6(p);
    if (health_plane) {
      obs::Profiler::instance().disable();
      // The plane really was live: detector changes landed in the ring and
      // the profiler saw the event loop.
      EXPECT_GT(wq->stats().events, 0u);
      EXPECT_FALSE(obs::Profiler::instance().snapshot().empty());
      obs::Profiler::instance().reset();
    }
    return obs::qos_json(r.qos).dump(2) + "\n" + reg.to_json() + "\n" +
           std::to_string(r.stabilization_time) + ":" + std::to_string(r.broadcasts) + ":" +
           std::to_string(r.copies_delivered);
  };
  EXPECT_EQ(fingerprint(false), fingerprint(true));
}

std::string monitor_events_text(const std::vector<obs::MonitorEvent>& events) {
  std::string out;
  for (const obs::MonitorEvent& e : events) {
    out += std::to_string(e.at) + " " + std::to_string(static_cast<int>(e.severity)) + " " +
           std::to_string(e.proc) + " " + e.rule + " " + e.detail + "\n";
  }
  return out;
}

TEST(GoldenTrace, ObserversComposeInListOrderDigest) {
  // Three observers on one Fig. 6 run: an online monitor judging every
  // change from t=0 (mirroring its events, with their causal lineage, into
  // a log of its own), the streaming window-QoS estimator, and a fault
  // injector crashing the carrier of each newly elected leader. Every
  // detector change reaches them in list order. The run's trace, the
  // monitor's events and mirror, the estimator's series and the injector's
  // crash log are pinned byte for byte (libstdc++ digests, as above).
  const std::vector<Id> ids = ids_homonymous(6, 3, 5);
  const auto crashes = crashes_last_k(6, 1, /*at=*/300);
  TraceLog mirror(1 << 14);
  obs::MonitorConfig mc;
  mc.gt = ground_truth_of(ids, crashes);
  mc.watch_from = 0;
  mc.trace = &mirror;
  obs::OnlineMonitor mon(mc);
  obs::WindowQosConfig wc;
  wc.gt = mc.gt;
  wc.crash_at = {-1, -1, -1, -1, -1, 300};
  obs::WindowQos wq(wc);
  chaos::FaultClause trig;
  trig.kind = chaos::ClauseKind::kCrashOnLeaderChange;
  trig.count = 2;
  trig.until = 1000;
  chaos::FaultPlan plan;
  plan.clauses = {trig};
  chaos::FaultInjector inj(plan, ids, 9);

  Fig6Params p;
  p.ids = ids;
  p.crashes = crashes;
  p.net.gst = 500;
  p.net.delta = 3;
  p.net.pre_gst_loss = 0.2;
  p.net.pre_gst_max_delay = 6;
  p.seed = 5;
  p.run_for = 2000;
  p.trace_capacity = 1 << 14;
  p.shards = 4;  // any observer pins the run to one shard: the bytes stay put
  p.observers = {&mon, &wq, &inj};
  const Fig6Result r = run_fig6(p);

  std::string crash_log;
  for (const std::string& line : inj.stats().crash_log) crash_log += line + "\n";
  EXPECT_EQ(crash_log,
            "chaos:crash-on-leader-change victim=2 at=7\n"
            "chaos:crash-on-leader-change victim=0 at=8\n");
  EXPECT_EQ(r.trace_dropped, 0u);
  EXPECT_EQ(mon.events().size(), 128u);
  EXPECT_EQ(fnv1a(obs::trace_jsonl(r.trace_events, {})), 0xf9659826f2e5a427ull);
  EXPECT_EQ(fnv1a(monitor_events_text(mon.events())), 0x5fda4d0f5122a527ull);
  EXPECT_EQ(fnv1a(obs::trace_jsonl(mirror.events(), {})), 0xfa042fdf1f78f381ull);
  EXPECT_EQ(fnv1a(wq.json().dump()), 0x1f368b3603b8d262ull);
}

TEST(GoldenTrace, ChaosCasesMatchCommittedDigests) {
  // One fault-injected case per stack, each run with the observers the
  // chaos runner composes: monitor before injector on fig6 and fig9, the
  // reliable-delivery emulator wrapping the injector on fig8 and smr. Per
  // case: the trace digest (the smr harness returns no trace, so its digest
  // is that of an empty log), the violation tags and the injector counters.
  const auto link = [](chaos::ClauseKind kind, SimTime until, double prob, SimTime delay) {
    chaos::FaultClause cl;
    cl.kind = kind;
    cl.until = until;
    cl.prob = prob;
    cl.delay = delay;
    return cl;
  };
  const auto trigger = [](chaos::ClauseKind kind, SimTime until) {
    chaos::FaultClause cl;
    cl.kind = kind;
    cl.count = 1;
    cl.until = until;
    return cl;
  };
  std::vector<chaos::ChaosCase> cases(4);
  cases[0].stack = chaos::StackKind::kFig6;
  cases[0].seed = 3;
  cases[0].plan.clauses = {link(chaos::ClauseKind::kLoss, 150, 0.5, 0),
                           link(chaos::ClauseKind::kReorder, 200, 0, 6)};
  cases[1].stack = chaos::StackKind::kFig8;
  cases[1].n = 5;
  cases[1].seed = 4;
  cases[1].gst = 300;
  cases[1].max_time = 20'000;
  cases[1].reliable = true;
  cases[1].plan.clauses = {link(chaos::ClauseKind::kLoss, 250, 0.6, 0),
                           link(chaos::ClauseKind::kDuplicate, 250, 0.5, 4),
                           trigger(chaos::ClauseKind::kCrashOnLeaderChange, 10'000)};
  cases[2].stack = chaos::StackKind::kFig9;
  cases[2].n = 5;
  cases[2].seed = 5;
  cases[2].crash_k = 1;
  cases[2].crash_at = 100;
  cases[2].max_time = 20'000;
  cases[2].plan.clauses = {trigger(chaos::ClauseKind::kCrashOnLeaderChange, 5000),
                           trigger(chaos::ClauseKind::kCrashOnQuorum, 5000)};
  cases[3].stack = chaos::StackKind::kSmr;
  cases[3].n = 5;
  cases[3].distinct = 5;
  cases[3].seed = 6;
  cases[3].gst = 300;
  cases[3].run_for = 4000;
  cases[3].max_time = 8000;
  cases[3].reliable = true;
  cases[3].plan.clauses = {link(chaos::ClauseKind::kLoss, 250, 0.5, 0),
                           trigger(chaos::ClauseKind::kCrashOnLeaderChange, 2000)};

  std::vector<std::string> got;
  for (const chaos::ChaosCase& c : cases) {
    const chaos::ChaosOutcome out = chaos::run_chaos_case(c, 1 << 14);
    std::string tags;
    for (const std::string& t : out.violation_tags()) tags += t + ",";
    std::ostringstream line;
    line << chaos::stack_name(c.stack) << " trace=" << std::hex
         << fnv1a(obs::trace_jsonl(out.trace_events, {})) << std::dec
         << " dropped=" << out.trace_dropped << " tags=" << tags
         << " crashes=" << out.injected_crashes << " lost=" << out.copies_dropped;
    got.push_back(line.str());
  }
  const std::vector<std::string> want = {
      "fig6 trace=b973a0362d6d2d4 dropped=23165 tags= crashes=0 lost=882",
      "fig8 trace=9c47f0b8abd2ba30 dropped=0 tags= crashes=1 lost=1978",
      "fig9 trace=714f5af69a394192 dropped=0 tags= crashes=2 lost=0",
      "smr trace=52a4fc4cfe3b87e0 dropped=0 tags= crashes=1 lost=2207",
  };
  EXPECT_EQ(got, want);
}

// ----------------------------------------------- parallel experiment engine

// ----------------------------------------------------------- sharded engine

// The pinger mesh on the conservative-synchronization engine. PerLinkTiming
// with min_delay 1 is the adversarial schedule for sharding: the lookahead
// bound is as tight as it gets (one tick per window), per-link base delays
// make every cross-shard edge different, and jitter keeps messages landing
// on both sides of each barrier.
RunFingerprint run_sharded_pinger(std::size_t shards, std::size_t mailbox_capacity = 1024,
                                  ShardRunStats* stats_out = nullptr) {
  obs::MetricsRegistry reg;
  SystemConfig cfg;
  cfg.ids = {1, 2, 2, 3, 3, 3, 4, 4, 5, 5};
  cfg.crashes.resize(10);
  cfg.crashes[8] = CrashPlan{40, true};
  cfg.crashes[9] = CrashPlan{25, false};
  cfg.timing = std::make_unique<PerLinkTiming>(1, 9, 3, 77);
  cfg.seed = 424242;
  cfg.trace_capacity = 1 << 16;
  cfg.metrics = &reg;
  cfg.shards = shards;
  cfg.mailbox_capacity = mailbox_capacity;
  System sys(std::move(cfg));
  for (ProcIndex i = 0; i < 10; ++i) sys.set_process(i, std::make_unique<Pinger>());
  sys.start();
  sys.run_until(120);
  if (stats_out != nullptr) *stats_out = sys.shard_stats();
  RunFingerprint fp;
  fp.trace = sys.trace().dump(1 << 16);
  fp.metrics = reg.to_json();
  fp.stats = sys.net_stats();
  return fp;
}

TEST(ShardedEngine, GoldenTraceByteIdenticalAcrossShardCounts) {
  // The determinism contract: trace, metrics, and every net counter are
  // byte-identical at shards = 1, 2, 4 and 7 (odd on purpose — uneven
  // round-robin partitions). shards=1 takes the single-threaded fast path,
  // so this also pins sharded == existing engine.
  const RunFingerprint ref = run_sharded_pinger(1);
  ASSERT_FALSE(ref.trace.empty());
  ASSERT_GT(ref.stats.copies_delivered, 0u);
  for (const std::size_t k : {2u, 4u, 7u}) {
    ShardRunStats st;
    const RunFingerprint fp = run_sharded_pinger(k, 1024, &st);
    EXPECT_EQ(ref.trace, fp.trace) << "trace diverged at shards=" << k;
    EXPECT_EQ(ref.metrics, fp.metrics) << "metrics diverged at shards=" << k;
    EXPECT_EQ(ref.stats.broadcasts, fp.stats.broadcasts);
    EXPECT_EQ(ref.stats.copies_sent, fp.stats.copies_sent);
    EXPECT_EQ(ref.stats.copies_delivered, fp.stats.copies_delivered);
    EXPECT_EQ(ref.stats.copies_lost_link, fp.stats.copies_lost_link);
    EXPECT_EQ(ref.stats.copies_lost_dying_sender, fp.stats.copies_lost_dying_sender);
    EXPECT_EQ(ref.stats.copies_to_dead, fp.stats.copies_to_dead);
    EXPECT_EQ(ref.stats.bytes_sent, fp.stats.bytes_sent);
    EXPECT_EQ(ref.stats.bytes_received, fp.stats.bytes_received);
    EXPECT_EQ(ref.stats.latency_sum, fp.stats.latency_sum);
    EXPECT_EQ(ref.stats.latency_max, fp.stats.latency_max);
    EXPECT_EQ(ref.stats.broadcasts_by_type, fp.stats.broadcasts_by_type);
    EXPECT_GT(st.windows, 0u);
    EXPECT_GT(st.cross_groups, 0u) << "schedule never crossed shards at k=" << k;
  }
}

TEST(ShardedEngine, SmrFullStackRunIsBitIdenticalAcrossShardCounts) {
  // The replicated log over the full OHPPolling stack through the harness
  // knob — the deepest consumer of the sharded substrate. The whole
  // fingerprint (hash chains, per-op latencies, broadcast counts by type)
  // must not move with the shard count.
  auto fingerprint = [](std::size_t shards) {
    smr::SmrSimParams p;
    p.ids = ids_unique(3);
    p.t = 1;
    p.full_stack = true;
    p.seed = 11;
    p.run_for = 3000;
    p.max_time = 12'000;
    p.workload.clients = 8;
    p.shards = shards;
    const smr::SmrSimResult r = run_smr_sim(p);
    std::string fp = std::to_string(r.converged) + ":" + std::to_string(r.ops_total) + ":" +
                     std::to_string(r.broadcasts) + ":" + std::to_string(r.end_time);
    for (const auto& [type, count] : r.broadcasts_by_type) {
      fp += ";" + type + "=" + std::to_string(count);
    }
    for (const smr::SmrReplicaStats& st : r.replicas) {
      fp += "|" + std::to_string(st.log_hash) + ":" + std::to_string(st.state_hash);
      for (const SimTime l : st.latencies) fp += "." + std::to_string(l);
    }
    return fp;
  };
  const std::string ref = fingerprint(1);
  EXPECT_EQ(ref.rfind("1:", 0), 0u) << ref;  // converged
  EXPECT_EQ(ref, fingerprint(2));
  EXPECT_EQ(ref, fingerprint(3));
}

TEST(ShardedEngine, WindowAdvancementNeverViolatesLookahead) {
  // Property: a cross-shard group drained at a window boundary must land at
  // or after that boundary — its arrival is >= send + lookahead >= w_end.
  // The engine counts violations instead of asserting, so the property is
  // checkable from outside under every schedule we throw at it.
  for (const std::size_t k : {2u, 3u, 4u, 7u}) {
    ShardRunStats st;
    (void)run_sharded_pinger(k, 1024, &st);
    EXPECT_EQ(st.lookahead_violations, 0u) << "lookahead bound violated at shards=" << k;
  }
}

TEST(ShardedEngine, MailboxSpillPathIsByteIdentical) {
  // A 2-slot mailbox forces the overflow spill path constantly; spilled
  // groups must arrive exactly like ring-carried ones.
  const RunFingerprint ref = run_sharded_pinger(1);
  ShardRunStats st;
  const RunFingerprint tiny = run_sharded_pinger(4, 2, &st);
  EXPECT_GT(st.mailbox_spills, 0u) << "capacity 2 never spilled — not exercising the path";
  EXPECT_EQ(ref.trace, tiny.trace);
  EXPECT_EQ(ref.metrics, tiny.metrics);
  EXPECT_EQ(ref.stats.copies_delivered, tiny.stats.copies_delivered);
  EXPECT_EQ(ref.stats.latency_sum, tiny.stats.latency_sum);
}

TEST(ShardedEngine, Fig6QosJsonIsByteIdenticalAcrossShardCounts) {
  // Full detector stack (OHPPolling over PartialSyncTiming) through the
  // harness knob: the QoS JSON — detection times, mistake intervals, leader
  // settling — is byte-identical at any shard count.
  const auto fingerprint = [](std::size_t shards) {
    Fig6Params p;
    p.ids = ids_homonymous(6, 3, 5);
    p.crashes = crashes_last_k(6, 2, /*at=*/300, /*stagger=*/40);
    p.net.gst = 500;
    p.net.delta = 3;
    p.net.pre_gst_loss = 0.2;
    p.net.pre_gst_max_delay = 6;
    p.seed = 5;
    p.run_for = 2000;
    p.collect_qos = true;
    p.shards = shards;
    const Fig6Result r = run_fig6(p);
    return obs::qos_json(r.qos).dump(2);
  };
  const std::string ref = fingerprint(1);
  EXPECT_EQ(ref, fingerprint(2));
  EXPECT_EQ(ref, fingerprint(4));
}

// A heartbeat mesh sized for the ROADMAP's monitoring-overlay work: n=1024
// simulated processes, all-to-all broadcast rounds. Completing under the
// ctest budget is the point — this scenario was out of reach for scenario
// sizes near n~48 before sharding.
struct Heartbeat final : Process {
  void on_start(Env& env) override {
    env.broadcast(make_message("MESH", 0));
    env.set_timer(64);
  }
  void on_timer(Env& env, TimerId) override {
    env.broadcast(make_message("MESH", 0));
    env.set_timer(64);
  }
  void on_message(Env&, const Message&) override { ++received_; }
  std::uint64_t received_ = 0;
};

TEST(ShardedEngine, ThousandProcessHeartbeatMeshCompletes) {
  constexpr std::size_t kN = 1024;
  SystemConfig cfg;
  for (std::size_t i = 0; i < kN; ++i) cfg.ids.push_back(i + 1);
  cfg.timing = std::make_unique<AsyncTiming>(8, 16);
  cfg.seed = 9;
  cfg.shards = 4;
  System sys(std::move(cfg));
  for (ProcIndex i = 0; i < kN; ++i) sys.set_process(i, std::make_unique<Heartbeat>());
  sys.start();
  sys.run_until(100);  // rounds at t=0 and t=64: ~2M deliveries
  const NetworkStats& st = sys.net_stats();
  EXPECT_GE(st.broadcasts, 2 * kN);
  EXPECT_GT(st.copies_delivered, static_cast<std::uint64_t>(kN) * kN);
  EXPECT_EQ(sys.shard_stats().lookahead_violations, 0u);
}

TEST(ExpRunner, CollectPreservesTaskOrderForEveryJobCount) {
  auto square = [](std::size_t i) { return i * i; };
  const auto serial = exp::run_collect(37, 1, square);
  for (const std::size_t jobs : {2ul, 4ul, 8ul, 64ul}) {
    EXPECT_EQ(exp::run_collect(37, jobs, square), serial) << "jobs=" << jobs;
  }
}

TEST(ExpRunner, FullSystemTasksAreThreadCountIndependent) {
  // Each task runs its own System seeded from Rng::derived(seed, index) —
  // the whole point of the engine: -j only changes wall clock, never output.
  auto task = [](std::size_t i) {
    Rng rng = Rng::derived(99, i);
    SystemConfig cfg;
    cfg.ids = {1, 2, 2, 3};
    cfg.timing = std::make_unique<AsyncTiming>(1, 1 + rng.uniform(1, 4));
    cfg.seed = rng.engine()();
    System sys(std::move(cfg));
    for (ProcIndex p = 0; p < 4; ++p) sys.set_process(p, std::make_unique<Pinger>());
    sys.start();
    sys.run_until(80);
    return std::to_string(sys.net_stats().copies_delivered) + ":" +
           std::to_string(sys.net_stats().bytes_sent);
  };
  const auto j1 = exp::run_collect(12, 1, task);
  const auto j8 = exp::run_collect(12, 8, task);
  EXPECT_EQ(j1, j8);
}

TEST(ExpRunner, SmrRunsAreBitIdenticalAcrossJobCounts) {
  // The replicated log is the deepest consumer of the sim substrate (lease
  // fast path + nested Fig. 8 instances + closed-loop workload); its entire
  // fingerprint — applied hash chain, state hash, per-op latencies, every
  // broadcast count by type — must be a pure function of the config, for
  // every -j level of the experiment engine.
  auto task = [](std::size_t i) {
    smr::SmrSimParams p;
    p.ids = ids_unique(3);
    p.t = 1;
    p.seed = 1000 + i;
    p.run_for = 3000;
    p.max_time = 12'000;
    p.workload.clients = 8;
    const smr::SmrSimResult r = run_smr_sim(p);
    std::string fp = std::to_string(r.converged) + ":" + std::to_string(r.ops_total) + ":" +
                     std::to_string(r.broadcasts) + ":" + std::to_string(r.end_time);
    for (const auto& [type, count] : r.broadcasts_by_type) {
      fp += ";" + type + "=" + std::to_string(count);
    }
    for (const smr::SmrReplicaStats& st : r.replicas) {
      fp += "|" + std::to_string(st.log_hash) + ":" + std::to_string(st.state_hash) + ":" +
            std::to_string(st.applied_chain.size());
      for (const std::uint64_t h : st.applied_chain) fp += "," + std::to_string(h);
      for (const SimTime l : st.latencies) fp += "." + std::to_string(l);
    }
    return fp;
  };
  const auto j1 = exp::run_collect(6, 1, task);
  for (const std::size_t jobs : {2ul, 8ul}) {
    EXPECT_EQ(exp::run_collect(6, jobs, task), j1) << "jobs=" << jobs;
  }
  for (const std::string& fp : j1) EXPECT_EQ(fp.rfind("1:", 0), 0u) << fp;  // all converged
}

TEST(ExpRunner, FirstTaskExceptionPropagates) {
  EXPECT_THROW(exp::run_indexed(16, 4,
                                [](std::size_t i) {
                                  if (i == 5) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
}

TEST(ExpRunner, DerivedRngIsAPureFunctionOfSeedAndStream) {
  Rng a = Rng::derived(7, 3);
  Rng b = Rng::derived(7, 3);
  for (int k = 0; k < 64; ++k) EXPECT_EQ(a.engine()(), b.engine()());
  // Neighboring streams diverge immediately.
  Rng c = Rng::derived(7, 4);
  EXPECT_NE(Rng::derived(7, 3).engine()(), c.engine()());
}

}  // namespace
}  // namespace hds
