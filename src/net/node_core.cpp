#include "net/node_core.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/profiler.h"

namespace hds::net {

namespace {

template <typename T>
bool later(const T& a, const T& b) {
  return a.at != b.at ? a.at > b.at : a.seq > b.seq;
}

}  // namespace

class NodeCore::CoreEnv final : public Env {
 public:
  explicit CoreEnv(NodeCore& core) : core_(core) {}
  [[nodiscard]] Id self_id() const override { return core_.ids_[core_.self_]; }
  void broadcast(Message m) override { core_.broadcast(m); }
  TimerId set_timer(SimTime delay) override { return core_.arm_timer(delay); }
  [[nodiscard]] SimTime local_now() const override { return core_.now_ms(); }

 private:
  NodeCore& core_;
};

NodeCore::NodeCore(const NetConfig& cfg, RelTime clock_zero)
    : self_(cfg.self),
      batching_(cfg.batching),
      epoch_(cfg.epoch),
      clock_zero_(clock_zero),
      now_(clock_zero),
      env_(std::make_unique<CoreEnv>(*this)),
      rng_(cfg.seed),
      trace_(cfg.trace_capacity) {
  if (cfg.peers.empty()) throw std::invalid_argument("NetSystem: need at least one peer");
  if (self_ >= cfg.peers.size()) throw std::invalid_argument("NetSystem: self out of range");
  for (const NetPeer& p : cfg.peers) ids_.push_back(p.id);
  heard_.assign(n(), false);
  heard_[self_] = true;
  heard_count_ = 1;
  batches_.resize(n());
  causal_.base = obs::causal_node_base(self_);
  if (cfg.reliability.enabled) {
    // Decouple the jitter from protocol randomness.
    rel_ = std::make_unique<ReliableChannel>(cfg.seed ^ 0x9E3779B97F4A7C15ull, self_, ids_[self_],
                                             n(), epoch_, cfg.metrics);
  }
  if (obs::MetricsRegistry* m = cfg.metrics) {
    m_broadcasts_ = &m->counter("udp_broadcasts_total");
    m_copies_delivered_ = &m->counter("udp_copies_delivered_total");
    m_copies_lost_link_ = &m->counter("udp_copies_lost_link_total");
    m_copies_duplicated_ = &m->counter("udp_copies_duplicated_total");
    m_bytes_sent_ = &m->counter("udp_bytes_sent_total");
    m_bytes_received_ = &m->counter("udp_bytes_received_total");
    m_packets_sent_ = &m->counter("udp_packets_sent_total");
    m_packets_received_ = &m->counter("udp_packets_received_total");
    m_decode_errors_ = &m->counter("udp_decode_errors_total");
    // Occupancy/size of DATA datagrams (control probes are excluded so the
    // batching policy's effect stays readable).
    m_batch_frames_ = &m->histogram("udp_batch_frames", obs::size_buckets());
    m_batch_bytes_ = &m->histogram("udp_batch_bytes", obs::exp_buckets(64, 65536));
  }
}

NodeCore::~NodeCore() = default;

void NodeCore::set_process(std::unique_ptr<Process> p) {
  if (started_) throw std::logic_error("NetSystem: set_process after start");
  proc_ = std::move(p);
}

SimTime NodeCore::now_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(now_ - clock_zero_).count();
}

void NodeCore::count(std::uint64_t NetNetworkStats::*field, obs::Counter* mirror, std::uint64_t k) {
  stats_.*field += k;
  obs::inc(mirror, k);
}

// ------------------------------------------------------------- dispatch

void NodeCore::start(RelTime now) {
  if (started_) throw std::logic_error("NetSystem: started twice");
  if (proc_ == nullptr) throw std::logic_error("NetSystem: process not installed");
  started_ = true;
  now_ = now;
  if (crashed_) return;
  if (trace_.enabled()) {
    HDS_PROF_SCOPE(obs::ProfSubsystem::kTraceStamp);
    causal_.parent = causal_.fresh();
    trace_.record(now_ms(), TraceEvent::Kind::kStart, self_, {}, causal_.parent, 0);
  }
  {
    HDS_PROF_SCOPE(obs::ProfSubsystem::kFdStep);
    proc_->on_start(*env_);
  }
  for (Message& m : std::exchange(early_, {})) deliver(std::move(m));
}

void NodeCore::crash() {
  crashed_ = true;
  early_.clear();
  timers_.clear();
}

void NodeCore::deliver(Message m) {
  if (crashed_) return;
  if (!started_) {
    early_.push_back(std::move(m));
    return;
  }
  if (trace_.enabled()) {
    HDS_PROF_SCOPE(obs::ProfSubsystem::kTraceStamp);
    causal_.parent = m.meta_causal_id;
    causal_.merge(m.meta_causal_clock);
    trace_.record(now_ms(), TraceEvent::Kind::kDeliver, self_, m.type, m.meta_causal_id,
                  m.meta_causal_parent);
  }
  {
    HDS_PROF_SCOPE(obs::ProfSubsystem::kFdStep);
    proc_->on_message(*env_, m);
  }
  count(&NetNetworkStats::copies_delivered, m_copies_delivered_);
}

TimerId NodeCore::arm_timer(SimTime delay) {
  const TimerId id = next_timer_++;
  // Arming happens inside a dispatch, so this is the lineage of the event
  // the handler is serving.
  timers_.push_back(Timer{now_ + std::chrono::milliseconds(delay), timer_seq_++, id, causal_.parent});
  std::push_heap(timers_.begin(), timers_.end(), later<Timer>);
  return id;
}

void NodeCore::advance(RelTime now) {
  now_ = now;
  seal_ended();
  while (!delayed_.empty() && delayed_.front().at <= now) {
    std::pop_heap(delayed_.begin(), delayed_.end(), later<Delayed>);
    Delayed d = std::move(delayed_.back());
    delayed_.pop_back();
    batch(d.to, d.frame);
  }
  if (rel_ != nullptr) emit_all(rel_->tick(now));
  if (probe_due_ && *probe_due_ <= now) probe_peers(now);
  if (!started_) return;
  const std::uint64_t armed_before = timer_seq_;
  while (!crashed_ && !timers_.empty() && timers_.front().at <= now &&
         timers_.front().seq < armed_before) {
    std::pop_heap(timers_.begin(), timers_.end(), later<Timer>);
    const Timer t = timers_.back();
    timers_.pop_back();
    if (trace_.enabled()) {
      HDS_PROF_SCOPE(obs::ProfSubsystem::kTraceStamp);
      causal_.parent = causal_.fresh();
      causal_.tick();
      trace_.record(now_ms(), TraceEvent::Kind::kTimer, self_, {}, causal_.parent, t.armed_parent);
    }
    HDS_PROF_SCOPE(obs::ProfSubsystem::kFdStep);
    proc_->on_timer(*env_, t.id);
  }
}

std::optional<RelTime> NodeCore::next_deadline() const {
  std::optional<RelTime> next = probe_due_;
  const auto fold = [&next](RelTime t) {
    if (!next || t < *next) next = t;
  };
  if (tick_end_) fold(*tick_end_);
  if (!delayed_.empty()) fold(delayed_.front().at);
  if (started_ && !timers_.empty()) fold(timers_.front().at);
  if (rel_ != nullptr) {
    if (const auto r = rel_->next_deadline()) fold(*r);
  }
  return next;
}

// ------------------------------------------------------------- send path

void NodeCore::broadcast(const Message& m) {
  Message stamped = m;
  stamped.meta_sender = self_;
  stamped.meta_sent_at = now_ms();
  if (trace_.enabled()) {
    // Stamp BEFORE encode_frame so the lineage crosses the socket in the
    // trace-context frame extension.
    HDS_PROF_SCOPE(obs::ProfSubsystem::kTraceStamp);
    stamped.meta_causal_parent = causal_.parent;
    stamped.meta_causal_id = causal_.fresh();
    stamped.meta_causal_clock = causal_.tick();
    trace_.record(stamped.meta_sent_at, TraceEvent::Kind::kBroadcast, self_, stamped.type,
                  stamped.meta_causal_id, stamped.meta_causal_parent);
  }
  count(&NetNetworkStats::broadcasts, m_broadcasts_);
  ++stats_.broadcasts_by_type[stamped.type];
  std::vector<std::uint8_t> frame;
  try {
    HDS_PROF_SCOPE(obs::ProfSubsystem::kCodecEncode);
    frame = encode_frame(builtin_codecs(), stamped, self_, ids_[self_]);
  } catch (const CodecError&) {
    // A body with no registered codec cannot cross a socket; count every
    // copy as lost rather than killing the node (configuration bug, visible
    // in stats, analogous to an MTU blackhole).
    count(&NetNetworkStats::copies_lost_link, m_copies_lost_link_, n());
    return;
  }
  for (ProcIndex to = 0; to < n(); ++to) {
    // With reliability on, each destination gets its own sequenced wrap of
    // the shared inner frame; the interposer then judges the first
    // transmission attempt (a drop is recovered by the retransmit timer —
    // loss injection sits below the ARQ, like a lossy wire).
    emit(to, stamped.type, rel_ ? rel_->wrap_data(to, stamped.type, frame, now_) : frame);
  }
}

void NodeCore::emit(ProcIndex to, const std::string& type, std::vector<std::uint8_t> frame) {
  CopyVerdict v;
  if (interposer_ != nullptr) v = interposer_->on_copy(now_ms(), self_, to, type);
  if (v.drop) {
    count(&NetNetworkStats::copies_lost_link, m_copies_lost_link_);
    return;
  }
  for (std::size_t copy = 0; copy <= v.duplicates; ++copy) {
    SimTime trail = 0;
    if (copy > 0) {
      trail = v.duplicate_spread > 0 ? rng_.uniform(1, v.duplicate_spread) : 1;
      count(&NetNetworkStats::copies_duplicated, m_copies_duplicated_);
    }
    count(&NetNetworkStats::copies_sent, nullptr);
    enqueue(now_ + std::chrono::milliseconds(v.extra_delay + trail), to,
            copy == v.duplicates ? std::move(frame) : frame);
  }
}

void NodeCore::emit_all(std::vector<RelSend> sends) {
  for (RelSend& s : sends) emit(s.to, s.type, std::move(s.frame));
}

void NodeCore::enqueue(RelTime at, ProcIndex to, std::vector<std::uint8_t> frame) {
  if (at <= now_) {
    batch(to, frame);
    return;
  }
  delayed_.push_back(Delayed{at, delayed_seq_++, to, std::move(frame)});
  std::push_heap(delayed_.begin(), delayed_.end(), later<Delayed>);
}

void NodeCore::batch(ProcIndex to, const std::vector<std::uint8_t>& frame) {
  seal_ended();  // a batch holds the frames of one tick
  BatchWriter& b = batches_[to];
  b.add(frame);
  if (!batching_ || b.wire_size() >= kMaxBatchBytes) {
    seal(to);
  } else if (!tick_end_) {
    tick_end_ = clock_zero_ + std::chrono::milliseconds(now_ms() + 1);
  }
}

void NodeCore::seal(ProcIndex to) {
  const std::size_t frames = batches_[to].frames();
  ready_.push_back(Datagram{to, batches_[to].take(), frames});
}

void NodeCore::seal_ended() {
  if (tick_end_ && *tick_end_ <= now_) flush();
}

void NodeCore::flush() {
  tick_end_.reset();
  for (ProcIndex to = 0; to < n(); ++to) {
    if (!batches_[to].empty()) seal(to);
  }
}

std::vector<Datagram> NodeCore::take_datagrams() { return std::exchange(ready_, {}); }

void NodeCore::sent(const Datagram& d, bool ok) {
  if (ok) {
    count(&NetNetworkStats::packets_sent, m_packets_sent_);
    count(&NetNetworkStats::bytes_sent, m_bytes_sent_, d.bytes.size());
    if (d.frames > 0) {
      obs::observe(m_batch_frames_, static_cast<std::int64_t>(d.frames));
      obs::observe(m_batch_bytes_, static_cast<std::int64_t>(d.bytes.size()));
    }
  } else {
    count(&NetNetworkStats::copies_lost_link, m_copies_lost_link_, d.frames);
  }
}

void NodeCore::send_control(std::uint8_t tag, ProcIndex to, const std::vector<std::uint8_t>& body) {
  BatchWriter w;
  w.add(encode_control_frame(tag, self_, ids_[self_], body));
  ready_.push_back(Datagram{to, w.take(), 0});
}

void NodeCore::probe_peers(RelTime now) {
  now_ = now;
  probe_due_.reset();
  if (peers_heard()) return;
  // A silent peer's socket (once bound) always answers, even after it has
  // passed its own barrier. A restarted incarnation probes with REJOIN
  // instead — HELLO's bytes are frozen and carry no epoch, and peers must
  // learn the new incarnation to flush the link's ARQ state mid-run.
  for (ProcIndex i = 0; i < n(); ++i) {
    if (heard_[i]) continue;
    if (epoch_ > 0) {
      send_control(kTagRejoin, i, rejoin_body(epoch_));
    } else {
      send_control(kTagHello, i);
    }
  }
  probe_due_ = now + std::chrono::milliseconds(kProbeIntervalMs);
}

// ------------------------------------------------------------- receive path

void NodeCore::on_datagram(const std::uint8_t* data, std::size_t len, RelTime now) {
  HDS_PROF_SCOPE(obs::ProfSubsystem::kUdpRecv);
  now_ = now;
  count(&NetNetworkStats::packets_received, m_packets_received_);
  count(&NetNetworkStats::bytes_received, m_bytes_received_, len);
  try {
    for (const FrameView& f : split_batch(data, len)) on_frame(f.data, f.len);
  } catch (const CodecError&) {
    count(&NetNetworkStats::decode_errors, m_decode_errors_);
  }
}

void NodeCore::on_frame(const std::uint8_t* data, std::size_t len) {
  Message m;
  try {
    HDS_PROF_SCOPE(obs::ProfSubsystem::kCodecDecode);
    m = decode_frame(builtin_codecs(), data, len);
  } catch (const CodecError&) {
    count(&NetNetworkStats::decode_errors, m_decode_errors_);
    return;
  }
  const ProcIndex from = m.meta_sender;
  const auto tag = peek_tag(data, len);
  const bool control = tag && *tag >= kCtrlTagFirst;
  const auto h = rel_ != nullptr && !control ? rel_peek(data, len) : std::nullopt;
  if ((control || h) && from >= n()) {
    count(&NetNetworkStats::decode_errors, m_decode_errors_);
    return;
  }
  if (control) {
    on_control(*tag, from, data, len);
    return;
  }
  // Latency across real processes is unknowable without clock agreement;
  // stamp receive time so downstream consumers see a well-formed value.
  m.meta_sent_at = now_ms();
  m.meta_wire_bytes = len;
  if (!h) {
    // Reliability off, or a plain frame from a reliability-off peer.
    deliver(std::move(m));
    return;
  }
  emit_all(rel_->note_peer_epoch(from, h->epoch, now_));
  rel_->on_ack(from, h->ack_epoch, h->ack_cum, h->ack_bits, now_);
  for (Message& ready : rel_->on_data(from, *h, std::move(m), now_)) deliver(std::move(ready));
}

void NodeCore::on_control(std::uint8_t tag, ProcIndex from, const std::uint8_t* data,
                          std::size_t len) {
  if (!heard_[from]) {
    heard_[from] = true;
    ++heard_count_;
  }
  const auto body = peek_control_body(data, len);
  switch (tag) {
    case kTagHello:
      send_control(kTagHelloAck, from);
      break;
    case kTagRelAck: {
      const auto ack = body ? parse_rel_ack_body(body->data, body->len) : std::nullopt;
      if (rel_ != nullptr && ack) rel_->on_ack(from, ack->ack_epoch, ack->ack_cum, ack->ack_bits, now_);
      break;
    }
    case kTagRejoin:
    case kTagRejoinAck: {
      const auto peer_epoch = body ? parse_rejoin_body(body->data, body->len) : std::nullopt;
      // A higher epoch flushes the link and re-sends what the dead
      // incarnation never acked.
      if (rel_ != nullptr && peer_epoch) emit_all(rel_->note_peer_epoch(from, *peer_epoch, now_));
      if (tag == kTagRejoin) send_control(kTagRejoinAck, from, rejoin_body(epoch_));
      break;
    }
    default:
      break;
  }
}

}  // namespace hds::net
