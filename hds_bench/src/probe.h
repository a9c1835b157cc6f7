// Timing proxies for the traced pass.
//
// Per-layer time is taken from outside the library: the benchmark wraps each
// component it assembles in a decorator that lives here —
//   - TimedProcess around on_start / on_message / on_timer,
//   - TimedEnv around Env::broadcast,
//   - TimedHOmega / TimedHSigma around detector queries —
// and every decorator call opens a span on the node's Probe. A span's self
// time is its duration minus the time covered by its direct children (a
// broadcast inside a callback, a detector query inside consensus or smr), so
// per-layer self times partition the time spent inside process callbacks.
//
// One Probe per node, touched only by the thread that runs that node's
// callbacks (a shard worker, the sim main thread, or a NetSystem node
// thread), so recording needs no synchronization.
#pragma once

#include <time.h>

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fd/interfaces.h"
#include "sim/process.h"

namespace hdsb {

enum class Layer : std::uint8_t { kStack, kFd, kConsensus, kSmr, kSend, kQuery };
inline constexpr std::size_t kLayers = 6;
const char* layer_name(Layer l);

// What the span wraps (the Chrome-trace event name is layer + what).
enum class What : std::uint8_t { kStart, kMessage, kTimer, kBroadcast, kHOmega, kHSigma };

struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

struct Span {
  std::int64_t start_ns = 0;  // steady_clock, ns
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;      // per-node, 1-based
  std::uint32_t parent = 0;  // id of the enclosing span, 0 at the top
  Layer layer = Layer::kStack;
  What what = What::kStart;
};

class Probe {
 public:
  // Keeps the last `ring_capacity` spans, and every 64th broadcast message
  // (up to 64 of them) as the codec cost sample.
  Probe(std::uint32_t node, std::size_t ring_capacity);

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  class Scope {
   public:
    Scope(Probe& p, Layer l, What w) : p_(p) { p_.enter(l, w); }
    ~Scope() { p_.leave(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Probe& p_;
  };

  void sample(const hds::Message& m);

  [[nodiscard]] std::uint32_t node() const { return node_; }
  [[nodiscard]] const std::array<LayerTotals, kLayers>& totals() const { return totals_; }
  [[nodiscard]] std::int64_t top_ns() const { return top_ns_; }          // inside depth-0 spans
  [[nodiscard]] std::uint64_t top_calls() const { return top_calls_; }  // depth-0 spans
  [[nodiscard]] std::uint64_t spans() const { return next_id_ - 1; }
  // The retained spans, oldest first.
  [[nodiscard]] std::vector<Span> ring() const;
  [[nodiscard]] const std::vector<hds::Message>& samples() const { return samples_; }
  // CPU clock of the thread that ran this node's callbacks (valid while that
  // thread lives); false before the first callback.
  [[nodiscard]] bool cpu_clock(clockid_t& out) const {
    out = cpu_clock_;
    return has_cpu_clock_;
  }

 private:
  struct Frame {
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::uint32_t id;
    std::uint32_t parent;
    Layer layer;
    What what;
  };

  void enter(Layer l, What w);
  void leave();

  std::uint32_t node_;
  std::array<LayerTotals, kLayers> totals_{};
  std::int64_t top_ns_ = 0;
  std::uint64_t top_calls_ = 0;
  std::uint32_t next_id_ = 1;
  std::vector<Frame> stack_;
  std::vector<Span> ring_;
  std::size_t ring_cap_;
  std::size_t ring_next_ = 0;
  std::uint64_t broadcasts_seen_ = 0;
  std::vector<hds::Message> samples_;
  clockid_t cpu_clock_{};
  bool has_cpu_clock_ = false;
};

// Env decorator: times broadcast, forwards everything else.
class TimedEnv final : public hds::Env {
 public:
  TimedEnv(hds::Env& inner, Probe& p) : inner_(inner), p_(p) {}
  [[nodiscard]] hds::Id self_id() const override { return inner_.self_id(); }
  void broadcast(hds::Message m) override;
  hds::TimerId set_timer(hds::SimTime delay) override { return inner_.set_timer(delay); }
  [[nodiscard]] hds::SimTime local_now() const override { return inner_.local_now(); }

 private:
  hds::Env& inner_;
  Probe& p_;
};

// Process decorator. `wrap_env` hands the inner process a TimedEnv (set for
// leaf components; a StackedProcess's own proxy leaves it off, because its
// components' proxies already time their broadcasts). A proxy of layer kSmr
// attributes callbacks on Fig. 8 message types to kConsensus: that is the
// replicated log's per-slot consensus instances, not the log itself.
class TimedProcess final : public hds::Process {
 public:
  TimedProcess(std::unique_ptr<hds::Process> inner, Probe& p, Layer layer, bool wrap_env)
      : inner_(std::move(inner)), p_(p), layer_(layer), wrap_env_(wrap_env) {}

  void on_start(hds::Env& env) override;
  void on_message(hds::Env& env, const hds::Message& m) override;
  void on_timer(hds::Env& env, hds::TimerId id) override;

 private:
  std::unique_ptr<hds::Process> inner_;
  Probe& p_;
  Layer layer_;
  bool wrap_env_;
};

class TimedHOmega final : public hds::HOmegaHandle {
 public:
  TimedHOmega(const hds::HOmegaHandle& inner, Probe& p) : inner_(inner), p_(p) {}
  [[nodiscard]] hds::HOmegaOut h_omega() const override {
    Probe::Scope s(p_, Layer::kQuery, What::kHOmega);
    return inner_.h_omega();
  }

 private:
  const hds::HOmegaHandle& inner_;
  Probe& p_;
};

class TimedHSigma final : public hds::HSigmaHandle {
 public:
  TimedHSigma(const hds::HSigmaHandle& inner, Probe& p) : inner_(inner), p_(p) {}
  [[nodiscard]] hds::HSigmaSnapshot snapshot() const override {
    Probe::Scope s(p_, Layer::kQuery, What::kHSigma);
    return inner_.snapshot();
  }

 private:
  const hds::HSigmaHandle& inner_;
  Probe& p_;
};

// The probes and handle proxies of one traced run, one probe per node. Must
// outlive the system whose processes reference them.
class Tracing {
 public:
  explicit Tracing(std::size_t nodes);

  [[nodiscard]] Probe& probe(std::size_t node) { return *probes_.at(node); }
  [[nodiscard]] const std::vector<std::unique_ptr<Probe>>& probes() const { return probes_; }
  const hds::HOmegaHandle& homega(const hds::HOmegaHandle& h, std::size_t node);
  const hds::HSigmaHandle& hsigma(const hds::HSigmaHandle& h, std::size_t node);

 private:
  std::vector<std::unique_ptr<Probe>> probes_;
  std::vector<std::unique_ptr<hds::HOmegaHandle>> homegas_;
  std::vector<std::unique_ptr<hds::HSigmaHandle>> hsigmas_;
};

// Assembly helpers that are the identity when `tr` is null (untraced pass),
// so both passes build their systems through one code path.
std::unique_ptr<hds::Process> leaf(std::unique_ptr<hds::Process> p, Tracing* tr, std::size_t node,
                                   Layer l);
std::unique_ptr<hds::Process> stack_node(std::unique_ptr<hds::Process> stack, Tracing* tr,
                                         std::size_t node);
const hds::HOmegaHandle& homega(const hds::HOmegaHandle& h, Tracing* tr, std::size_t node);
const hds::HSigmaHandle& hsigma(const hds::HSigmaHandle& h, Tracing* tr, std::size_t node);

// Everything the traced pass accumulates over the runs of one workload.
struct TraceTotals {
  std::array<LayerTotals, kLayers> layers{};
  std::int64_t callback_ns = 0;  // Σ depth-0 span time
  std::uint64_t callbacks = 0;   // depth-0 spans
  std::uint64_t spans = 0;
  std::vector<std::pair<std::uint32_t, std::vector<Span>>> last_run_spans;  // per node
  std::vector<hds::Message> samples;  // capped codec mix

  // Adds one run's probes; the retained spans are replaced by this run's.
  void fold(const std::vector<std::unique_ptr<Probe>>& probes);
};

// Chrome trace ("traceEvents", complete events, one tid per node).
void write_chrome_trace(const std::string& path, const TraceTotals& t);

// Mean ns for one encode_frame + decode_frame over the sampled message mix
// (messages without a registered codec are skipped); 0 when none.
double codec_ns_per_msg(const std::vector<hds::Message>& mix);

}  // namespace hdsb
