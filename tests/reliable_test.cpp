// ARQ layer (net/reliable.h): wire-extension round-trips, the channel's
// exactly-once in-order delivery under scripted loss/duplication/reordering
// (virtual time — the channel never reads a clock, so these are fully
// deterministic), crash-restart epoch semantics, bounded-degradation via the
// lost floor, and the sim-side ReliableLinkEmulator.
#include "net/reliable.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fd/impl/ohp_polling.h"
#include "net/codec.h"

namespace hds::net {
namespace {

RelTime at(SimTime ms) { return RelTime{} + std::chrono::milliseconds(ms); }

Message poll(Round r, Id id) { return make_message(OHPPolling::kPollType, PollingMsg{r, id}); }

std::vector<std::uint8_t> frame_of(const Message& m, ProcIndex sender, Id id) {
  return encode_frame(builtin_codecs(), m, sender, id);
}

// ------------------------------------------------------------ wire layer

TEST(RelWire, WrapRoundTripsHeaderAndBodySurvivesDecode) {
  const Message m = poll(7, 42);
  const auto inner = frame_of(m, 2, 42);
  RelHeader h;
  h.epoch = 3;
  h.seq = 1'000'000;  // multi-byte varints on purpose
  h.lost_floor = 999'999;
  h.ack_epoch = 2;
  h.ack_cum = 130;
  h.ack_bits = 0x8000'0000'0000'0001ull;
  const auto wrapped = rel_wrap(inner, h);
  EXPECT_EQ(wrapped[2], kWireVersion | kWireRelFlag);

  const auto back = rel_peek(wrapped.data(), wrapped.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->epoch, h.epoch);
  EXPECT_EQ(back->seq, h.seq);
  EXPECT_EQ(back->lost_floor, h.lost_floor);
  EXPECT_EQ(back->ack_epoch, h.ack_epoch);
  EXPECT_EQ(back->ack_cum, h.ack_cum);
  EXPECT_EQ(back->ack_bits, h.ack_bits);

  // The wrapped frame still decodes (checksum recomputed, body untouched).
  const Message dm = decode_frame(builtin_codecs(), wrapped.data(), wrapped.size());
  EXPECT_EQ(dm.type, m.type);
  EXPECT_EQ(dm.meta_sender, 2u);
  ASSERT_NE(dm.as<PollingMsg>(), nullptr);
  EXPECT_EQ(*dm.as<PollingMsg>(), (PollingMsg{7, 42}));
}

TEST(RelWire, PlainFrameCarriesNoFlagAndPeekDeclines) {
  const auto bare = frame_of(poll(1, 5), 0, 5);
  EXPECT_EQ(bare[2], kWireVersion);  // reliability off: byte-identical v1
  EXPECT_FALSE(rel_peek(bare.data(), bare.size()).has_value());
}

TEST(RelWire, AckAndRejoinBodiesRoundTripAndRejectTruncation) {
  const RelAckBody a{5, (1ull << 40) + 3, ~0ull};
  const auto ab = rel_ack_body(a);
  const auto pa = parse_rel_ack_body(ab.data(), ab.size());
  ASSERT_TRUE(pa.has_value());
  EXPECT_EQ(pa->ack_epoch, a.ack_epoch);
  EXPECT_EQ(pa->ack_cum, a.ack_cum);
  EXPECT_EQ(pa->ack_bits, a.ack_bits);
  for (std::size_t len = 0; len < ab.size(); ++len) {
    EXPECT_FALSE(parse_rel_ack_body(ab.data(), len).has_value()) << "len=" << len;
  }

  const auto rb = rejoin_body(1'234'567);
  const auto pr = parse_rejoin_body(rb.data(), rb.size());
  ASSERT_TRUE(pr.has_value());
  EXPECT_EQ(*pr, 1'234'567u);
  EXPECT_FALSE(parse_rejoin_body(rb.data(), 0).has_value());
}

TEST(RelWire, ControlFrameCarriesAckBodyThroughPeek) {
  const auto body = rel_ack_body(RelAckBody{0, 9, 0b101});
  const auto frame = encode_control_frame(kTagRelAck, 1, 17, body);
  EXPECT_EQ(peek_tag(frame.data(), frame.size()), kTagRelAck);
  // The envelope validates like any frame...
  EXPECT_NO_THROW(decode_frame(builtin_codecs(), frame.data(), frame.size()));
  // ...and the raw body comes back out for the reliable layer to parse.
  const auto view = peek_control_body(frame.data(), frame.size());
  ASSERT_TRUE(view.has_value());
  const auto back = parse_rel_ack_body(view->data, view->len);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->ack_cum, 9u);
}

// ------------------------------------------------------- channel harness

// Feeds one arrived datagram into a channel exactly the way the transport
// does: standalone acks via on_ack, data frames via note_peer_epoch ->
// on_ack -> on_data. Returns the messages delivered up the stack; any
// epoch-flush requeues are appended to *flushed.
std::vector<Message> receive(ReliableChannel& ch, ProcIndex from,
                             const std::vector<std::uint8_t>& frame, RelTime now,
                             std::vector<RelSend>* flushed = nullptr) {
  const auto tag = peek_tag(frame.data(), frame.size());
  if (tag.has_value() && *tag == kTagRelAck) {
    const auto view = peek_control_body(frame.data(), frame.size());
    if (!view) return {};
    const auto ack = parse_rel_ack_body(view->data, view->len);
    if (ack) ch.on_ack(from, ack->ack_epoch, ack->ack_cum, ack->ack_bits, now);
    return {};
  }
  const auto h = rel_peek(frame.data(), frame.size());
  if (!h) return {};
  Message m = decode_frame(builtin_codecs(), frame.data(), frame.size());
  std::vector<RelSend> requeued = ch.note_peer_epoch(from, h->epoch, now);
  if (flushed != nullptr) {
    for (RelSend& s : requeued) flushed->push_back(std::move(s));
  }
  ch.on_ack(from, h->ack_epoch, h->ack_cum, h->ack_bits, now);
  return ch.on_data(from, *h, std::move(m), now);
}

// The property test: full-duplex traffic through a medium that drops 30% of
// datagrams, duplicates 10%, and delivers the rest with up to 25 ms of
// jitter (reordering). Every message must come out the far side exactly
// once, in order, with a bounded number of retransmissions and no
// window-drop degradation. Virtual time; the seeded Rng scripts the faults,
// so the run (and every counter) is reproducible.
TEST(RelChannel, LossDupReorderStillYieldsExactlyOnceInOrderBothWays) {
  constexpr int kN = 120;
  ReliableChannel a(7, 0, 11, 2, 0, nullptr);
  ReliableChannel b(7, 1, 22, 2, 0, nullptr);

  Rng medium(20260809);
  std::multimap<SimTime, std::pair<ProcIndex, std::vector<std::uint8_t>>> wires;
  const auto post = [&](SimTime t, ProcIndex to, std::vector<std::uint8_t> f) {
    if (medium.chance(0.30)) return;  // loss
    const SimTime jitter = 1 + medium.uniform(0, 25);
    if (medium.chance(0.10)) {
      wires.emplace(t + 1 + medium.uniform(0, 25), std::pair{to, f});  // duplicate
    }
    wires.emplace(t + jitter, std::pair{to, std::move(f)});
  };

  std::vector<Round> got_a, got_b;
  int sent = 0;
  SimTime t = 0;
  for (; t <= 120'000 && (got_a.size() < kN || got_b.size() < kN); ++t) {
    const RelTime now = at(t);
    if (sent < kN && t % 3 == 0) {
      ++sent;
      const Round r = static_cast<Round>(sent);
      post(t, 1, a.wrap_data(1, OHPPolling::kPollType, frame_of(poll(r, 11), 0, 11), now));
      post(t, 0, b.wrap_data(0, OHPPolling::kPollType, frame_of(poll(r, 22), 1, 22), now));
    }
    while (!wires.empty() && wires.begin()->first <= t) {
      auto [to, frame] = std::move(wires.begin()->second);
      wires.erase(wires.begin());
      ReliableChannel& ch = to == 0 ? a : b;
      for (const Message& m : receive(ch, to == 0 ? 1 : 0, frame, now)) {
        ASSERT_NE(m.as<PollingMsg>(), nullptr);
        (to == 0 ? got_a : got_b).push_back(m.as<PollingMsg>()->r);
      }
    }
    for (RelSend& s : a.tick(now)) post(t, s.to, std::move(s.frame));
    for (RelSend& s : b.tick(now)) post(t, s.to, std::move(s.frame));
  }

  // Exactly once, in order, both directions.
  ASSERT_EQ(got_a.size(), static_cast<std::size_t>(kN));
  ASSERT_EQ(got_b.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(got_a[i], static_cast<Round>(i + 1)) << "a[" << i << "]";
    EXPECT_EQ(got_b[i], static_cast<Round>(i + 1)) << "b[" << i << "]";
  }

  const RelStats sa = a.stats();
  const RelStats sb = b.stats();
  // 30% loss forces recovery, but well within the retry budget: nothing was
  // abandoned, so delivery was lossless above the layer.
  EXPECT_GT(sa.retransmits, 0u);
  EXPECT_EQ(sa.window_drops, 0u);
  EXPECT_EQ(sb.window_drops, 0u);
  EXPECT_EQ(sa.skipped_lost, 0u);
  EXPECT_EQ(sb.delivered, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(sa.delivered, static_cast<std::uint64_t>(kN));
  // Bounded: the deterministic run needs a small constant factor of resends,
  // nowhere near kN * kMaxRetransmits.
  EXPECT_LE(sa.retransmits + sb.retransmits, static_cast<std::uint64_t>(kN) * 10);
  // The medium's duplicates (and retransmit crossings) were suppressed, and
  // jitter parked frames out of order.
  EXPECT_GT(sa.dup_frames + sb.dup_frames, 0u);
  EXPECT_GT(sa.out_of_order + sb.out_of_order, 0u);
  EXPECT_GT(sa.acks_received, 0u);
  EXPECT_GT(sb.acks_received, 0u);
}

// A link that blackholes long enough to exhaust the retry budget must
// degrade by advancing the lost floor — and the receiver must skip the
// abandoned sequence numbers and keep delivering, not wedge forever on the
// gap.
TEST(RelChannel, RetryExhaustionAdvancesLostFloorInsteadOfWedging) {
  ReliableChannel a(3, 0, 11, 2, 0, nullptr);
  ReliableChannel b(3, 1, 22, 2, 0, nullptr);

  // A window and a dozen more sends into a black hole: window overflow
  // (drop-oldest) abandons the first dozen, retry exhaustion the rest.
  constexpr int kSends = static_cast<int>(ReliableChannel::kWindow) + 12;
  SimTime t = 0;
  for (int i = 1; i <= kSends; ++i) {
    (void)a.wrap_data(1, OHPPolling::kPollType, frame_of(poll(static_cast<Round>(i), 11), 0, 11),
                      at(t));
  }
  // Backoff reaches kRtoMaxMs within five doublings; each retry adds at
  // most a quarter of jitter, and the last one waits out one more kRtoMaxMs.
  constexpr SimTime kBlackhole =
      (ReliableChannel::kMaxRetransmits + 2) * ReliableChannel::kRtoMaxMs * 5 / 4;
  for (; t <= kBlackhole; t += 5) (void)a.tick(at(t));  // frames vanish
  const RelStats mid = a.stats();
  EXPECT_GT(mid.window_drops, 0u);

  // Heal the link; one more message must arrive even though its sequence
  // number sits far past everything the receiver ever saw.
  std::vector<Round> got;
  const auto deliver_now = [&](const std::vector<std::uint8_t>& f) {
    for (const Message& m : receive(b, 0, f, at(t))) got.push_back(m.as<PollingMsg>()->r);
  };
  deliver_now(a.wrap_data(1, OHPPolling::kPollType, frame_of(poll(999, 11), 0, 11), at(t)));
  ASSERT_EQ(got.size(), 1u) << "receiver wedged on abandoned sequence numbers";
  EXPECT_EQ(got[0], 999);
  EXPECT_GT(b.stats().skipped_lost, 0u);
}

// Crash-restart: the peer's new incarnation must receive what its
// predecessor never acknowledged (re-queued under fresh sequence numbers),
// and frames from the dead incarnation must be discarded, not delivered.
TEST(RelChannel, EpochBumpRequeuesUnackedAndDropsStaleIncarnation) {
  ReliableChannel a(5, 0, 11, 2, /*self_epoch=*/0, nullptr);
  ReliableChannel b1(5, 1, 22, 2, /*self_epoch=*/0, nullptr);

  // Five payloads reach the first incarnation, but every ack is lost.
  for (int i = 1; i <= 5; ++i) {
    const auto f =
        a.wrap_data(1, OHPPolling::kPollType, frame_of(poll(static_cast<Round>(i), 11), 0, 11),
                    at(10 * i));
    (void)receive(b1, 0, f, at(10 * i));
  }
  EXPECT_EQ(b1.stats().delivered, 5u);

  // The supervisor respawns peer 1 with epoch 1; a REJOIN announcement
  // flushes the link and returns the unacked backlog for retransmission.
  std::vector<RelSend> requeued = a.note_peer_epoch(1, 1, at(100));
  ASSERT_EQ(requeued.size(), 5u);
  const RelStats sa = a.stats();
  EXPECT_GE(sa.epoch_flushes, 1u);
  EXPECT_EQ(sa.requeued, 5u);

  // The new incarnation (tracking peer epochs afresh) gets all five, in
  // order, exactly once.
  ReliableChannel b2(5, 1, 22, 2, /*self_epoch=*/1, nullptr);
  std::vector<Round> got;
  for (const RelSend& s : requeued) {
    EXPECT_EQ(s.to, 1u);
    EXPECT_EQ(s.type, OHPPolling::kPollType);
    for (const Message& m : receive(b2, 0, s.frame, at(110))) {
      got.push_back(m.as<PollingMsg>()->r);
    }
  }
  EXPECT_EQ(got, (std::vector<Round>{1, 2, 3, 4, 5}));

  // Receiver-side staleness: a channel that has seen the peer's epoch-1
  // incarnation discards a lingering epoch-0 frame outright.
  ReliableChannel c(5, 0, 11, 2, 0, nullptr);
  ReliableChannel a0(5, 1, 22, 2, /*self_epoch=*/0, nullptr);
  ReliableChannel a1(5, 1, 22, 2, /*self_epoch=*/1, nullptr);
  const auto old_frame =
      a0.wrap_data(0, OHPPolling::kPollType, frame_of(poll(1, 22), 1, 22), at(0));
  const auto new_frame =
      a1.wrap_data(0, OHPPolling::kPollType, frame_of(poll(2, 22), 1, 22), at(1));
  EXPECT_EQ(receive(c, 1, new_frame, at(2)).size(), 1u);
  EXPECT_TRUE(receive(c, 1, old_frame, at(3)).empty());  // delayed pre-restart frame
  EXPECT_GE(c.stats().stale_epoch_drops, 1u);
}

// Identical seeds + identical fault script => identical counters. The
// channel's only nondeterminism would be a real clock; it has none.
TEST(RelChannel, VirtualTimeRunsAreReproducible) {
  const auto run = [] {
    ReliableChannel a(9, 0, 1, 2, 0, nullptr);
    ReliableChannel b(9, 1, 2, 2, 0, nullptr);
    Rng medium(4242);
    std::multimap<SimTime, std::vector<std::uint8_t>> wires;
    for (SimTime t = 0; t <= 3'000; ++t) {
      if (t < 300 && t % 10 == 0) {
        auto f = a.wrap_data(1, OHPPolling::kPollType,
                             frame_of(poll(static_cast<Round>(t), 1), 0, 1), at(t));
        if (!medium.chance(0.5)) wires.emplace(t + 1 + medium.uniform(0, 10), std::move(f));
      }
      while (!wires.empty() && wires.begin()->first <= t) {
        (void)receive(b, 0, wires.begin()->second, at(t));
        wires.erase(wires.begin());
      }
      for (RelSend& s : a.tick(at(t))) {
        if (!medium.chance(0.5)) wires.emplace(t + 1 + medium.uniform(0, 10), std::move(s.frame));
      }
      for (RelSend& s : b.tick(at(t))) {
        if (s.to == 0 && !medium.chance(0.5)) {
          std::vector<RelSend> none;
          (void)receive(a, 1, s.frame, at(t), &none);
        }
      }
    }
    const RelStats sa = a.stats();
    const RelStats sb = b.stats();
    return std::vector<std::uint64_t>{sa.data_sent, sa.retransmits, sa.acked,  sa.window_drops,
                                      sb.delivered, sb.dup_frames,  sb.out_of_order};
  };
  EXPECT_EQ(run(), run());
}

// Scripted loss: frame 2 is lost once, so frames 3 and 4 are sacked at their
// first ack and cum-acked only after frame 2's retransmission closes the
// hole. Every RTT sample must time a round trip (plus at most the ack
// delay), not that wait, and every frame must count as acked exactly once.
TEST(RelChannel, SackedFrameTimesItsRoundTripAndCountsOnce) {
  constexpr SimTime kDelay = 5;  // one way, both directions
  obs::MetricsRegistry reg;
  ReliableChannel a(1, 0, 11, 2, 0, &reg);
  ReliableChannel b(1, 1, 22, 2, 0, nullptr);

  std::multimap<SimTime, std::pair<ProcIndex, std::vector<std::uint8_t>>> wires;
  bool lost_once = false;
  for (SimTime t = 0; t <= 1'000; ++t) {
    const RelTime now = at(t);
    if (t % 10 == 0 && t <= 30) {
      const auto r = static_cast<Round>(t / 10 + 1);
      auto f = a.wrap_data(1, OHPPolling::kPollType, frame_of(poll(r, 11), 0, 11), now);
      if (r == 2 && !lost_once) {
        lost_once = true;  // the first transmission of frame 2 vanishes
      } else {
        wires.emplace(t + kDelay, std::pair{ProcIndex{1}, std::move(f)});
      }
    }
    while (!wires.empty() && wires.begin()->first <= t) {
      auto [to, frame] = std::move(wires.begin()->second);
      wires.erase(wires.begin());
      (void)receive(to == 0 ? a : b, to == 0 ? 1 : 0, frame, now);
    }
    for (RelSend& s : a.tick(now)) wires.emplace(t + kDelay, std::pair{s.to, std::move(s.frame)});
    for (RelSend& s : b.tick(now)) wires.emplace(t + kDelay, std::pair{s.to, std::move(s.frame)});
  }

  EXPECT_EQ(b.stats().delivered, 4u);
  const RelStats sa = a.stats();
  EXPECT_EQ(sa.retransmits, 1u);
  EXPECT_EQ(sa.acked, sa.data_sent);
  // Frames 1, 3 and 4 time the link; frame 2 was retransmitted (Karn).
  const obs::Histogram* rtt = reg.find_histogram("rel_rtt_ms");
  ASSERT_NE(rtt, nullptr);
  EXPECT_EQ(rtt->count(), 3u);
  // The round trip plus the ack delay bounds every sample: no bucket wholly
  // above it holds one.
  const std::int64_t ceiling = 2 * kDelay + ReliableChannel::kAckDelayMs;
  for (std::size_t i = 1; i <= rtt->bounds().size(); ++i) {
    if (rtt->bounds()[i - 1] < ceiling) continue;
    EXPECT_EQ(rtt->bucket_count(i), 0u) << "a sample above " << rtt->bounds()[i - 1]
                                        << " ms timed the wait for a retransmission";
  }
  EXPECT_GE(rtt->sum(), static_cast<std::int64_t>(rtt->count()) * 2 * kDelay);
  EXPECT_LE(rtt->sum(), static_cast<std::int64_t>(rtt->count()) * ceiling);
}

// ------------------------------------------------- sim-side emulator

// Inner interposer scripting pre-GST loss: every copy before `heal` drops
// (and is duplicated, to exercise suppression); afterwards the link is
// clean.
class HealAt final : public LinkInterposer {
 public:
  explicit HealAt(SimTime heal) : heal_(heal) {}
  CopyVerdict on_copy(SimTime now, ProcIndex, ProcIndex, const std::string&) override {
    ++calls_;
    CopyVerdict v;
    v.drop = now < heal_;
    v.duplicates = 1;
    return v;
  }
  int calls() const { return calls_; }

 private:
  SimTime heal_;
  int calls_ = 0;
};

TEST(RelEmulator, RecoversDroppedCopyAtFirstPostHealRetry) {
  HealAt inner(100);
  ReliableLinkEmulator rel(inner);  // rto 8 ms doubling, so retries at
                                    // +8, +24, +56, +120, ...
  const CopyVerdict v = rel.on_copy(0, 0, 1, "POLLING");
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(v.extra_delay, 120);  // first retry instant at or past heal=100
  EXPECT_EQ(v.duplicates, 0u);    // injected duplicates suppressed...
  EXPECT_GT(rel.dedup_suppressed(), 0u);  // ...and accounted
  EXPECT_EQ(rel.recovered(), 1u);
  EXPECT_EQ(rel.given_up(), 0u);

  // Post-heal copies pass straight through with no added delay.
  const CopyVerdict clean = rel.on_copy(500, 0, 1, "POLLING");
  EXPECT_FALSE(clean.drop);
  EXPECT_EQ(clean.extra_delay, 0);
}

TEST(RelEmulator, PermanentBlackholeGivesUpAfterBoundedAttempts) {
  HealAt inner(std::numeric_limits<SimTime>::max());
  ReliableLinkEmulator rel(inner);
  const CopyVerdict v = rel.on_copy(0, 0, 1, "POLLING");
  EXPECT_TRUE(v.drop);
  EXPECT_EQ(rel.given_up(), 1u);
  EXPECT_EQ(inner.calls(), ReliableLinkEmulator::kMaxAttempts);  // the retry budget, no more
}

}  // namespace
}  // namespace hds::net
