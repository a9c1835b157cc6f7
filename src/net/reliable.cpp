#include "net/reliable.h"

#include <algorithm>

#include "sim/system.h"

namespace hds::net {

namespace {

// The emulator's retry spacing: 8 ms doubling, capped at 1024 ms.
constexpr SimTime kEmulatorRtoBaseMs = 8;
constexpr SimTime kEmulatorRtoMaxMs = 1024;

std::chrono::milliseconds ms(SimTime t) { return std::chrono::milliseconds(t); }

double ms_between(RelTime from, RelTime to) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(to - from).count();
}

// Offset of the body-length varint inside a well-formed frame — the splice
// point for the ARQ extension. Throws CodecError on malformation.
std::size_t body_len_offset(const std::uint8_t* data, std::size_t len) {
  if (len < 4 + 4 || data[0] != kWireMagic0 || data[1] != kWireMagic1 ||
      (data[2] & kWireVersionMask) != kWireVersion) {
    throw CodecError("rel: not a v1 frame");
  }
  WireReader r(data + 4, len - 4 - 4);
  r.varint();  // sender index
  r.varint();  // sender id
  if ((data[2] & kWireTracedFlag) != 0) {
    for (int i = 0; i < 3; ++i) r.varint();
  }
  return len - 4 - r.remaining();
}

}  // namespace

std::vector<std::uint8_t> rel_wrap(const std::vector<std::uint8_t>& inner, const RelHeader& h) {
  if ((inner.size() > 2) && (inner[2] & kWireRelFlag) != 0) {
    throw CodecError("rel_wrap: frame already wrapped");
  }
  const std::size_t split = body_len_offset(inner.data(), inner.size());
  WireWriter w;
  w.u8(inner[0]);
  w.u8(inner[1]);
  w.u8(static_cast<std::uint8_t>(inner[2] | kWireRelFlag));
  w.bytes(inner.data() + 3, split - 3);  // tag + sender varints + trace extension
  w.varint(h.epoch);
  w.varint(h.seq);
  w.varint(h.lost_floor);
  w.varint(h.ack_epoch);
  w.varint(h.ack_cum);
  w.varint(h.ack_bits);
  // body length + body, then a fresh checksum over the new byte string.
  w.bytes(inner.data() + split, inner.size() - 4 - split);
  w.u32_fixed(fnv1a(w.data().data(), w.size()));
  return w.take();
}

std::optional<RelHeader> rel_peek(const std::uint8_t* data, std::size_t len) {
  if (len < 4 + 4 || data[0] != kWireMagic0 || data[1] != kWireMagic1 ||
      (data[2] & kWireVersionMask) != kWireVersion || (data[2] & kWireRelFlag) == 0) {
    return std::nullopt;
  }
  try {
    WireReader r(data + 4, len - 4 - 4);
    r.varint();  // sender index
    r.varint();  // sender id
    if ((data[2] & kWireTracedFlag) != 0) {
      for (int i = 0; i < 3; ++i) r.varint();
    }
    RelHeader h;
    h.epoch = r.varint();
    h.seq = r.varint();
    h.lost_floor = r.varint();
    h.ack_epoch = r.varint();
    h.ack_cum = r.varint();
    h.ack_bits = r.varint();
    return h;
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> rel_ack_body(const RelAckBody& b) {
  WireWriter w;
  w.varint(b.ack_epoch);
  w.varint(b.ack_cum);
  w.varint(b.ack_bits);
  return w.take();
}

std::optional<RelAckBody> parse_rel_ack_body(const std::uint8_t* data, std::size_t len) {
  try {
    WireReader r(data, len);
    RelAckBody b;
    b.ack_epoch = r.varint();
    b.ack_cum = r.varint();
    b.ack_bits = r.varint();
    if (r.remaining() != 0) return std::nullopt;
    return b;
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> rejoin_body(std::uint64_t epoch) {
  WireWriter w;
  w.varint(epoch);
  return w.take();
}

std::optional<std::uint64_t> parse_rejoin_body(const std::uint8_t* data, std::size_t len) {
  try {
    WireReader r(data, len);
    const std::uint64_t e = r.varint();
    if (r.remaining() != 0) return std::nullopt;
    return e;
  } catch (const CodecError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------- channel

ReliableChannel::ReliableChannel(std::uint64_t jitter_seed, ProcIndex self, Id self_id,
                                 std::size_t n, std::uint64_t self_epoch,
                                 obs::MetricsRegistry* metrics)
    : self_(self),
      self_id_(self_id),
      self_epoch_(self_epoch),
      send_(n),
      recv_(n),
      rng_(jitter_seed) {
  if (metrics != nullptr) {
    m_data_sent_ = &metrics->counter("rel_data_sent_total");
    m_retransmits_ = &metrics->counter("rel_retransmits_total");
    m_acked_ = &metrics->counter("rel_acked_total");
    m_window_drops_ = &metrics->counter("rel_window_drops_total");
    m_reorder_drops_ = &metrics->counter("rel_reorder_drops_total");
    m_acks_sent_ = &metrics->counter("rel_acks_sent_total");
    m_acks_received_ = &metrics->counter("rel_acks_received_total");
    m_dup_frames_ = &metrics->counter("rel_dup_frames_total");
    m_out_of_order_ = &metrics->counter("rel_out_of_order_total");
    m_skipped_lost_ = &metrics->counter("rel_skipped_lost_total");
    m_delivered_ = &metrics->counter("rel_delivered_total");
    m_stale_epoch_ = &metrics->counter("rel_stale_epoch_drops_total");
    m_epoch_flushes_ = &metrics->counter("rel_epoch_flushes_total");
    m_requeued_ = &metrics->counter("rel_requeued_total");
    m_rtt_ms_ = &metrics->histogram("rel_rtt_ms", obs::latency_buckets());
  }
}

SimTime ReliableChannel::current_rto(const SendLink& s) const {
  if (!s.have_rtt) return kRtoInitialMs;
  const auto rto = static_cast<SimTime>(s.srtt_ms + 4.0 * s.rttvar_ms + 0.5);
  return std::clamp(rto, kRtoMinMs, kRtoMaxMs);
}

std::uint64_t ReliableChannel::ack_bits_of(const RecvLink& r) {
  std::uint64_t bits = 0;
  for (auto it = r.ooo.begin(); it != r.ooo.end(); ++it) {
    const std::uint64_t off = it->first - r.cum;  // >= 1 by invariant
    if (off == 0 || off > 64) continue;
    bits |= std::uint64_t{1} << (off - 1);
  }
  return bits;
}

RelHeader ReliableChannel::header_for(ProcIndex to, std::uint64_t seq, const SendLink& s) {
  RecvLink& r = recv_[to];
  RelHeader h;
  h.epoch = self_epoch_;
  h.seq = seq;
  h.lost_floor = s.lost_floor;
  h.ack_epoch = r.epoch;
  h.ack_cum = r.cum;
  h.ack_bits = ack_bits_of(r);
  r.ack_pending = false;  // fully conveyed by the piggyback
  return h;
}

void ReliableChannel::update_rtt(SendLink& s, double sample_ms) {
  if (!s.have_rtt) {
    s.srtt_ms = sample_ms;
    s.rttvar_ms = sample_ms / 2.0;
    s.have_rtt = true;
  } else {
    s.rttvar_ms = 0.75 * s.rttvar_ms + 0.25 * std::abs(s.srtt_ms - sample_ms);
    s.srtt_ms = 0.875 * s.srtt_ms + 0.125 * sample_ms;
  }
  obs::observe(m_rtt_ms_, static_cast<std::int64_t>(sample_ms + 0.5));
}

std::vector<std::uint8_t> ReliableChannel::wrap_data(ProcIndex to, const std::string& type,
                                                     const std::vector<std::uint8_t>& inner,
                                                     RelTime now) {
  SendLink& s = send_.at(to);
  if (s.window.size() >= kWindow) {
    // Graceful degradation: abandon the oldest frame and advance the lost
    // floor so the peer's cumulative ack can move past the hole.
    if (!s.window.front().sacked) {
      ++st_.window_drops;
      obs::inc(m_window_drops_);
    }
    s.lost_floor = s.window.front().seq;
    s.window.pop_front();
  }
  Inflight f;
  f.seq = s.next_seq++;
  f.type = type;
  f.inner = inner;
  f.first_sent = now;
  f.rto_ms = current_rto(s);
  f.next_due = now + ms(f.rto_ms);
  const RelHeader h = header_for(to, f.seq, s);
  auto wire = rel_wrap(inner, h);
  s.window.push_back(std::move(f));
  ++st_.data_sent;
  obs::inc(m_data_sent_);
  return wire;
}

void ReliableChannel::drain_ready(RecvLink& r, std::vector<Message>& out) {
  while (!r.ooo.empty()) {
    auto it = r.ooo.begin();
    if (it->first <= r.cum) {
      // Released by a lost-floor jump: received past frames deliver in
      // sequence order even though the cum already covers them.
      out.push_back(std::move(it->second));
    } else if (it->first == r.cum + 1) {
      ++r.cum;
      out.push_back(std::move(it->second));
    } else {
      break;
    }
    r.ooo.erase(it);
    ++st_.delivered;
    obs::inc(m_delivered_);
  }
}

std::vector<Message> ReliableChannel::on_data(ProcIndex from, const RelHeader& h, Message m,
                                              RelTime now) {
  RecvLink& r = recv_.at(from);
  std::vector<Message> out;
  if (h.epoch != r.epoch) {
    // note_peer_epoch runs before on_data, so a mismatch means a stale
    // incarnation's datagram still in flight — discard it.
    ++st_.stale_epoch_drops;
    obs::inc(m_stale_epoch_);
    return out;
  }
  if (h.lost_floor > r.cum) {
    // The peer gave up on everything at or below the floor; count the seqs
    // that never arrived (the parked ones deliver below).
    std::uint64_t skipped = h.lost_floor - r.cum;
    for (const auto& [seq, parked] : r.ooo) {
      (void)parked;
      if (seq > r.cum && seq <= h.lost_floor) --skipped;
    }
    st_.skipped_lost += skipped;
    obs::inc(m_skipped_lost_, skipped);
    r.cum = h.lost_floor;
    drain_ready(r, out);
  }
  if (h.seq <= r.cum || r.ooo.count(h.seq) != 0) {
    ++st_.dup_frames;
    obs::inc(m_dup_frames_);
  } else if (h.seq == r.cum + 1) {
    ++r.cum;
    out.push_back(std::move(m));
    ++st_.delivered;
    obs::inc(m_delivered_);
    drain_ready(r, out);
  } else if (r.ooo.size() >= kReorderBuffer) {
    // Park buffer full: drop; the peer's retransmission covers it once the
    // gap closes and space frees up.
    ++st_.reorder_drops;
    obs::inc(m_reorder_drops_);
  } else {
    r.ooo.emplace(h.seq, std::move(m));
    ++st_.out_of_order;
    obs::inc(m_out_of_order_);
  }
  // Always (re-)arm the delayed ack — even duplicates mean the peer is
  // missing our ack state.
  if (!r.ack_pending) {
    r.ack_pending = true;
    r.ack_due = now + ms(kAckDelayMs);
  }
  return out;
}

void ReliableChannel::on_ack(ProcIndex from, std::uint64_t ack_epoch, std::uint64_t ack_cum,
                             std::uint64_t ack_bits, RelTime now) {
  if (ack_epoch != self_epoch_) {
    // Meant for a previous incarnation of this node; its seq space is gone.
    ++st_.stale_epoch_drops;
    obs::inc(m_stale_epoch_);
    return;
  }
  SendLink& s = send_.at(from);
  ++st_.acks_received;
  obs::inc(m_acks_received_);
  // A frame counts, and times the link, at its first ack, selective or
  // cumulative. A frame sacked earlier was counted then: the cumulative ack
  // passes it only once the hole before it is repaired, so timing it here
  // would measure the wait for a retransmission, not the round trip.
  const auto first_ack = [&](const Inflight& f) {
    if (f.attempts == 1) {
      // Karn's rule: a retransmitted frame's ack is ambiguous, never a sample.
      update_rtt(s, ms_between(f.first_sent, now));
    }
    ++st_.acked;
    obs::inc(m_acked_);
  };
  while (!s.window.empty() && s.window.front().seq <= ack_cum) {
    if (!s.window.front().sacked) first_ack(s.window.front());
    s.window.pop_front();
  }
  for (Inflight& f : s.window) {
    if (f.sacked || f.seq <= ack_cum || f.seq > ack_cum + 64) continue;
    if ((ack_bits >> (f.seq - ack_cum - 1) & 1) != 0) {
      f.sacked = true;
      first_ack(f);
    }
  }
}

std::vector<RelSend> ReliableChannel::note_peer_epoch(ProcIndex peer, std::uint64_t epoch,
                                                      RelTime now) {
  std::vector<RelSend> out;
  RecvLink& r = recv_.at(peer);
  if (epoch <= r.epoch) return out;
  ++st_.epoch_flushes;
  obs::inc(m_epoch_flushes_);
  // Receiver direction: the peer's sequence space starts over.
  r = RecvLink{};
  r.epoch = epoch;
  // Sender direction: fresh seqs, RTT, and floor for the new incarnation —
  // but whatever the dead one never acked must still get through, so the
  // payloads are re-queued (the new process may have consumed some of them
  // in its previous life; consensus bodies tolerate replay, and a missed
  // DECIDE is exactly what the re-queue exists to deliver).
  SendLink& s = send_.at(peer);
  std::deque<Inflight> old;
  old.swap(s.window);
  s = SendLink{};
  for (Inflight& f : old) {
    Inflight fresh;
    fresh.seq = s.next_seq++;
    fresh.type = std::move(f.type);
    fresh.inner = std::move(f.inner);
    fresh.first_sent = now;
    fresh.rto_ms = current_rto(s);
    fresh.next_due = now + ms(fresh.rto_ms);
    const RelHeader h = header_for(peer, fresh.seq, s);
    out.push_back(RelSend{peer, fresh.type, rel_wrap(fresh.inner, h)});
    s.window.push_back(std::move(fresh));
    ++st_.requeued;
    obs::inc(m_requeued_);
  }
  return out;
}

std::vector<RelSend> ReliableChannel::tick(RelTime now) {
  std::vector<RelSend> out;
  for (ProcIndex p = 0; p < send_.size(); ++p) {
    SendLink& s = send_[p];
    // Retry budget exhausted at the head: give up and advance the floor so
    // the link degrades instead of wedging.
    while (!s.window.empty() && s.window.front().attempts > kMaxRetransmits) {
      if (!s.window.front().sacked) {
        ++st_.window_drops;
        obs::inc(m_window_drops_);
      }
      s.lost_floor = s.window.front().seq;
      s.window.pop_front();
    }
    for (Inflight& f : s.window) {
      if (f.sacked || f.next_due > now) continue;
      if (f.attempts >= kMaxRetransmits) {
        // Out of budget mid-window; parked at max RTO until it reaches the
        // head and the give-up path above runs.
        f.attempts = kMaxRetransmits + 1;
        f.next_due = now + ms(kRtoMaxMs);
        continue;
      }
      ++f.attempts;
      f.rto_ms = std::min<SimTime>(f.rto_ms * 2, kRtoMaxMs);
      const SimTime jitter = rng_.uniform(0, std::max<SimTime>(1, f.rto_ms / 4));
      f.next_due = now + ms(f.rto_ms + jitter);
      ++st_.retransmits;
      obs::inc(m_retransmits_);
      out.push_back(RelSend{p, f.type, rel_wrap(f.inner, header_for(p, f.seq, s))});
    }
  }
  for (ProcIndex p = 0; p < recv_.size(); ++p) {
    RecvLink& r = recv_[p];
    if (!r.ack_pending || r.ack_due > now) continue;
    r.ack_pending = false;
    ++st_.acks_sent;
    obs::inc(m_acks_sent_);
    const RelAckBody body{r.epoch, r.cum, ack_bits_of(r)};
    out.push_back(
        RelSend{p, "REL_ACK", encode_control_frame(kTagRelAck, self_, self_id_, rel_ack_body(body))});
  }
  return out;
}

std::optional<RelTime> ReliableChannel::next_deadline() const {
  std::optional<RelTime> next;
  for (const SendLink& s : send_) {
    for (const Inflight& f : s.window) {
      if (f.sacked) continue;
      if (!next || f.next_due < *next) next = f.next_due;
    }
  }
  for (const RecvLink& r : recv_) {
    if (r.ack_pending && (!next || r.ack_due < *next)) next = r.ack_due;
  }
  return next;
}

// --------------------------------------------------------------- emulator

void ReliableLinkEmulator::attach(System& sys) { sys.set_interposer(this); }

CopyVerdict ReliableLinkEmulator::on_copy(SimTime now, ProcIndex from, ProcIndex to,
                                          const std::string& type) {
  CopyVerdict v = inner_.on_copy(now, from, to, type);
  dedup_suppressed_ += v.duplicates;
  v.duplicates = 0;
  v.duplicate_spread = 0;
  if (!v.drop) return v;
  SimTime delay = v.extra_delay;
  SimTime rto = kEmulatorRtoBaseMs;
  for (int attempt = 1; attempt < kMaxAttempts; ++attempt) {
    delay += rto;
    rto = std::min<SimTime>(rto * 2, kEmulatorRtoMaxMs);
    CopyVerdict retry = inner_.on_copy(now + delay, from, to, type);
    dedup_suppressed_ += retry.duplicates;
    if (!retry.drop) {
      ++recovered_;
      return CopyVerdict{false, delay + retry.extra_delay, 0, 0};
    }
  }
  ++given_up_;
  return CopyVerdict{true, 0, 0, 0};
}

}  // namespace hds::net
