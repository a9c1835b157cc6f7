#include "probe.h"

#include <pthread.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

#include "consensus/messages.h"
#include "net/codec.h"

namespace hdsb {

namespace {

constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kSamplesPerNode = 64;
constexpr std::size_t kSamplesTotal = 4096;
constexpr std::size_t kSpanBudget = std::size_t{1} << 18;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* what_name(What w) {
  switch (w) {
    case What::kStart: return "on_start";
    case What::kMessage: return "on_message";
    case What::kTimer: return "on_timer";
    case What::kBroadcast: return "broadcast";
    case What::kHOmega: return "h_omega";
    case What::kHSigma: return "snapshot";
  }
  return "?";
}

// The Fig. 8 message types an SmrReplica routes into its per-slot consensus
// instances.
bool is_fig8_type(const std::string& t) {
  return t == hds::kCoordType || t == hds::kPh0Type || t == hds::kPh1Type || t == hds::kPh2Type ||
         t == hds::kDecideType;
}

// Per-node span ring capacity under a fixed total budget.
std::size_t ring_capacity_for(std::size_t nodes) {
  return std::max<std::size_t>(256, kSpanBudget / std::max<std::size_t>(1, nodes));
}

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kStack: return "stack";
    case Layer::kFd: return "fd";
    case Layer::kConsensus: return "consensus";
    case Layer::kSmr: return "smr";
    case Layer::kSend: return "send";
    case Layer::kQuery: return "query";
  }
  return "?";
}

Probe::Probe(std::uint32_t node, std::size_t ring_capacity)
    : node_(node), ring_cap_(ring_capacity) {
  stack_.reserve(8);
}

void Probe::enter(Layer l, What w) {
  if (stack_.empty() && !has_cpu_clock_) {
    has_cpu_clock_ = pthread_getcpuclockid(pthread_self(), &cpu_clock_) == 0;
  }
  const std::uint32_t parent = stack_.empty() ? 0 : stack_.back().id;
  stack_.push_back(Frame{now_ns(), 0, next_id_++, parent, l, w});
}

void Probe::leave() {
  const std::int64_t end = now_ns();
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = end - f.start_ns;
  LayerTotals& t = totals_[static_cast<std::size_t>(f.layer)];
  ++t.calls;
  t.total_ns += dur;
  t.self_ns += dur - f.child_ns;
  if (stack_.empty()) {
    top_ns_ += dur;
    ++top_calls_;
  } else {
    stack_.back().child_ns += dur;
  }
  if (ring_cap_ == 0) return;
  const Span s{f.start_ns, end, f.id, f.parent, f.layer, f.what};
  if (ring_.size() < ring_cap_) {
    ring_.push_back(s);
  } else {
    ring_[ring_next_] = s;
  }
  ring_next_ = (ring_next_ + 1) % ring_cap_;
}

void Probe::sample(const hds::Message& m) {
  if (broadcasts_seen_++ % kSampleEvery == 0 && samples_.size() < kSamplesPerNode) {
    samples_.push_back(m);
  }
}

std::vector<Span> Probe::ring() const {
  if (ring_.size() < ring_cap_) return ring_;
  std::vector<Span> out(ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_), ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(ring_next_));
  return out;
}

void TimedEnv::broadcast(hds::Message m) {
  Probe::Scope s(p_, Layer::kSend, What::kBroadcast);
  p_.sample(m);
  inner_.broadcast(std::move(m));
}

void TimedProcess::on_start(hds::Env& env) {
  Probe::Scope s(p_, layer_, What::kStart);
  if (wrap_env_) {
    TimedEnv te(env, p_);
    inner_->on_start(te);
  } else {
    inner_->on_start(env);
  }
}

void TimedProcess::on_message(hds::Env& env, const hds::Message& m) {
  const Layer l = layer_ == Layer::kSmr && is_fig8_type(m.type) ? Layer::kConsensus : layer_;
  Probe::Scope s(p_, l, What::kMessage);
  if (wrap_env_) {
    TimedEnv te(env, p_);
    inner_->on_message(te, m);
  } else {
    inner_->on_message(env, m);
  }
}

void TimedProcess::on_timer(hds::Env& env, hds::TimerId id) {
  Probe::Scope s(p_, layer_, What::kTimer);
  if (wrap_env_) {
    TimedEnv te(env, p_);
    inner_->on_timer(te, id);
  } else {
    inner_->on_timer(env, id);
  }
}

Tracing::Tracing(std::size_t nodes) {
  for (std::size_t i = 0; i < nodes; ++i) {
    probes_.push_back(std::make_unique<Probe>(static_cast<std::uint32_t>(i), ring_capacity_for(nodes)));
  }
}

const hds::HOmegaHandle& Tracing::homega(const hds::HOmegaHandle& h, std::size_t node) {
  homegas_.push_back(std::make_unique<TimedHOmega>(h, probe(node)));
  return *homegas_.back();
}

const hds::HSigmaHandle& Tracing::hsigma(const hds::HSigmaHandle& h, std::size_t node) {
  hsigmas_.push_back(std::make_unique<TimedHSigma>(h, probe(node)));
  return *hsigmas_.back();
}

std::unique_ptr<hds::Process> leaf(std::unique_ptr<hds::Process> p, Tracing* tr, std::size_t node,
                                   Layer l) {
  if (tr == nullptr) return p;
  return std::make_unique<TimedProcess>(std::move(p), tr->probe(node), l, true);
}

std::unique_ptr<hds::Process> stack_node(std::unique_ptr<hds::Process> stack, Tracing* tr,
                                         std::size_t node) {
  if (tr == nullptr) return stack;
  return std::make_unique<TimedProcess>(std::move(stack), tr->probe(node), Layer::kStack, false);
}

const hds::HOmegaHandle& homega(const hds::HOmegaHandle& h, Tracing* tr, std::size_t node) {
  return tr == nullptr ? h : tr->homega(h, node);
}

const hds::HSigmaHandle& hsigma(const hds::HSigmaHandle& h, Tracing* tr, std::size_t node) {
  return tr == nullptr ? h : tr->hsigma(h, node);
}

void TraceTotals::fold(const std::vector<std::unique_ptr<Probe>>& probes) {
  last_run_spans.clear();
  for (const auto& p : probes) {
    for (std::size_t l = 0; l < kLayers; ++l) {
      layers[l].calls += p->totals()[l].calls;
      layers[l].total_ns += p->totals()[l].total_ns;
      layers[l].self_ns += p->totals()[l].self_ns;
    }
    callback_ns += p->top_ns();
    callbacks += p->top_calls();
    spans += p->spans();
    last_run_spans.emplace_back(p->node(), p->ring());
    for (const hds::Message& m : p->samples()) {
      if (samples.size() >= kSamplesTotal) break;
      samples.push_back(m);
    }
  }
}

void write_chrome_trace(const std::string& path, const TraceTotals& t) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::int64_t base = INT64_MAX;
  for (const auto& [node, spans] : t.last_run_spans) {
    for (const Span& s : spans) base = std::min(base, s.start_ns);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& [node, spans] : t.last_run_spans) {
    for (const Span& s : spans) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                   "\"pid\":1,\"tid\":%u,\"args\":{\"id\":%u,\"parent\":%u}}",
                   first ? "" : ",", layer_name(s.layer), what_name(s.what), layer_name(s.layer),
                   static_cast<double>(s.start_ns - base) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3, node, s.id, s.parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

double codec_ns_per_msg(const std::vector<hds::Message>& mix) {
  const hds::net::CodecRegistry& reg = hds::net::builtin_codecs();
  std::vector<const hds::Message*> coded;
  for (const hds::Message& m : mix) {
    if (reg.by_type(m.type) != nullptr) coded.push_back(&m);
  }
  if (coded.empty()) return 0;
  constexpr std::int64_t kMinNs = 50'000'000;
  std::uint64_t msgs = 0;
  std::size_t sink = 0;
  const std::int64_t t0 = now_ns();
  std::int64_t elapsed = 0;
  do {
    for (const hds::Message* m : coded) {
      const std::vector<std::uint8_t> frame = hds::net::encode_frame(reg, *m, 1, 7);
      const hds::Message back = hds::net::decode_frame(reg, frame.data(), frame.size());
      sink += frame.size() + back.type.size();
    }
    msgs += coded.size();
    elapsed = now_ns() - t0;
  } while (elapsed < kMinNs);
  if (sink == 0) throw std::logic_error("codec round trip produced nothing");
  return static_cast<double>(elapsed) / static_cast<double>(msgs);
}

}  // namespace hdsb
