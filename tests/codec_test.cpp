// Wire codec tests: primitive round-trips, seeded random round-trips of
// every registered body type, batch envelope round-trips, and rejection of
// malformed / truncated / corrupted frames (which must throw CodecError —
// never crash or read out of bounds; the sanitizer CI config runs these).
#include "net/codec.h"

#include <gtest/gtest.h>

#include <any>

#include "common/label.h"
#include "common/rng.h"
#include "consensus/messages.h"
#include "fd/impl/alive_ranker.h"
#include "fd/impl/ap_sync.h"
#include "fd/impl/homega_heartbeat.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/impl/ohp_polling.h"
#include "net/wire.h"
#include "smr/types.h"

namespace hds::net {
namespace {

// ------------------------------------------------------------ primitives

TEST(Wire, VarintRoundTripsBoundaryValues) {
  const std::uint64_t cases[] = {0,
                                 1,
                                 127,
                                 128,
                                 16383,
                                 16384,
                                 (1ull << 32) - 1,
                                 1ull << 32,
                                 (1ull << 63),
                                 ~0ull};
  for (const std::uint64_t v : cases) {
    WireWriter w;
    w.varint(v);
    WireReader r(w.data().data(), w.size());
    EXPECT_EQ(r.varint(), v);
    EXPECT_EQ(r.remaining(), 0u);
  }
}

TEST(Wire, SvarintRoundTripsSignedBoundaries) {
  const std::int64_t cases[] = {0,  1,  -1, 63, -64, 64, -65, (std::int64_t)1 << 62,
                                INT64_MAX, INT64_MIN};
  for (const std::int64_t v : cases) {
    WireWriter w;
    w.svarint(v);
    WireReader r(w.data().data(), w.size());
    EXPECT_EQ(r.svarint(), v);
  }
}

TEST(Wire, StringRoundTripsAndRejectsOverlongLength) {
  WireWriter w;
  w.str("quorum {1,1,2}");
  WireReader r(w.data().data(), w.size());
  EXPECT_EQ(r.str(), "quorum {1,1,2}");

  // A length prefix larger than the remaining bytes must throw, not read on.
  WireWriter bad;
  bad.varint(1000);
  bad.u8('x');
  WireReader rb(bad.data().data(), bad.size());
  EXPECT_THROW(rb.str(), CodecError);
}

TEST(Wire, TruncatedVarintThrows) {
  const std::uint8_t lone_continuation[] = {0x80};
  WireReader r(lone_continuation, 1);
  EXPECT_THROW(r.varint(), CodecError);
}

TEST(Wire, OverlongVarintThrows) {
  // 11 continuation bytes: more than a u64 can need.
  std::vector<std::uint8_t> bytes(11, 0x80);
  bytes.push_back(0x01);
  WireReader r(bytes.data(), bytes.size());
  EXPECT_THROW(r.varint(), CodecError);
}

// ------------------------------------------------- random body generation

Message random_body(const std::string& type, Rng& rng) {
  const auto rid = [&] { return static_cast<Id>(rng.uniform(0, 1 << 20)); };
  const auto rval = [&] { return static_cast<Value>(rng.uniform(-100000, 100000)); };
  const auto rround = [&] { return static_cast<Round>(rng.uniform(0, 5000)); };
  const auto rinst = [&] { return static_cast<std::int64_t>(rng.uniform(-5, 5)); };
  const auto rmaybe = [&]() -> MaybeValue {
    if (rng.chance(0.3)) return std::nullopt;
    return rval();
  };
  const auto rlabels = [&] {
    std::set<Label> out;
    const std::size_t k = rng.index(4);
    for (std::size_t i = 0; i < k; ++i) {
      Multiset<Id> m;
      const std::size_t sz = 1 + rng.index(4);
      for (std::size_t j = 0; j < sz; ++j) m.insert(rid());
      out.insert(Label::of_multiset(m));
    }
    return out;
  };

  const auto rop = [&] {
    smr::SmrOp op;
    op.client = static_cast<std::uint64_t>(rng.uniform(0, 1 << 21));
    op.seq = rng.uniform(0, 10000);
    op.key = rng.uniform(0, 256);
    op.val = rng.uniform(-100000, 100000);
    const std::size_t pad = rng.index(6);
    for (std::size_t i = 0; i < pad; ++i) {
      op.pad.push_back(static_cast<std::uint8_t>(rng.index(256)));
    }
    return op;
  };
  const auto rbatch = [&] {
    smr::SmrBatch b;
    b.id = rng.uniform(0, 1 << 20);
    const std::size_t k = rng.index(4);
    for (std::size_t i = 0; i < k; ++i) b.ops.push_back(rop());
    return b;
  };
  const auto rcommits = [&] {
    std::vector<smr::SmrCommitRec> out;
    const std::size_t k = rng.index(4);
    for (std::size_t i = 0; i < k; ++i) {
      out.push_back(smr::SmrCommitRec{rng.uniform(0, 5000), rng.uniform(0, 1 << 20)});
    }
    return out;
  };

  if (type == AliveRanker::kMsgType) return make_message(type, AliveMsg{rid()});
  if (type == APComponent::kMsgType) return make_message(type, ApAliveMsg{});
  if (type == HOmegaHeartbeat::kMsgType) {
    return make_message(type, HeartbeatMsg{rid(), rng.uniform(0, 1 << 30)});
  }
  if (type == HSigmaComponent::kMsgType) return make_message(type, IdentMsg{rid()});
  if (type == OHPPolling::kPollType) return make_message(type, PollingMsg{rround(), rid()});
  if (type == OHPPolling::kReplyType) {
    return make_message(type, PollReplyMsg{rround(), rround(), rid(), rid()});
  }
  if (type == kCoordType) return make_message(type, CoordMsg{rid(), rround(), rval(), rinst()});
  if (type == kPh0Type) return make_message(type, Ph0Msg{rround(), rval(), rinst()});
  if (type == kPh1Type) return make_message(type, Ph1Msg{rround(), rval(), rinst()});
  if (type == kPh2Type) return make_message(type, Ph2Msg{rround(), rmaybe(), rinst()});
  if (type == kDecideType) return make_message(type, DecideMsg{rval(), rinst()});
  if (type == kPh1QType) {
    return make_message(type,
                        Ph1QMsg{rid(), rround(), rng.uniform(0, 50), rlabels(), rval(), rinst()});
  }
  if (type == kPh2QType) {
    return make_message(type,
                        Ph2QMsg{rid(), rround(), rng.uniform(0, 50), rlabels(), rmaybe(), rinst()});
  }
  if (type == smr::kSmrAppendType) {
    return make_message(type,
                        smr::SmrAppendMsg{rng.uniform(0, 500), rng.uniform(0, 5000), rbatch(),
                                          rcommits()});
  }
  if (type == smr::kSmrAckType) {
    smr::SmrAckMsg m;
    m.epoch = rng.uniform(0, 500);
    m.replica = static_cast<std::uint64_t>(rng.uniform(0, 64));
    m.logged_through = rng.uniform(0, 5000);
    m.applied_through = rng.uniform(0, 5000);
    m.commit_frontier = rng.uniform(0, 5000);
    m.commits = rcommits();
    const std::size_t k = rng.index(4);
    for (std::size_t i = 0; i < k; ++i) m.pending.push_back(rop());
    return make_message(type, m);
  }
  if (type == smr::kSmrNewEpochType) {
    return make_message(type,
                        smr::SmrNewEpochMsg{rng.uniform(0, 500), rng.uniform(0, 5000),
                                            static_cast<std::uint64_t>(rng.uniform(0, 64))});
  }
  if (type == smr::kSmrPromiseType) {
    smr::SmrPromiseMsg m;
    m.epoch = rng.uniform(0, 500);
    m.replica = static_cast<std::uint64_t>(rng.uniform(0, 64));
    m.frontier = rng.uniform(0, 5000);
    const std::size_t k = rng.index(3);
    for (std::size_t i = 0; i < k; ++i) {
      m.entries.push_back(
          smr::SmrLogRec{rng.uniform(0, 5000), rng.uniform(0, 500), rng.chance(0.5), rbatch()});
    }
    return make_message(type, m);
  }
  if (type == smr::kSmrProposeType) {
    return make_message(type,
                        smr::SmrProposeMsg{rng.uniform(0, 500), rng.uniform(0, 5000), rbatch()});
  }
  throw std::logic_error("no generator for registered type " + type);
}

bool bodies_equal(const std::string& type, const std::any& a, const std::any& b) {
  const auto eq = [&](auto tag) {
    using T = decltype(tag);
    return *std::any_cast<T>(&a) == *std::any_cast<T>(&b);
  };
  if (type == AliveRanker::kMsgType) return eq(AliveMsg{});
  if (type == APComponent::kMsgType) return eq(ApAliveMsg{});
  if (type == HOmegaHeartbeat::kMsgType) return eq(HeartbeatMsg{});
  if (type == HSigmaComponent::kMsgType) return eq(IdentMsg{});
  if (type == OHPPolling::kPollType) return eq(PollingMsg{});
  if (type == OHPPolling::kReplyType) return eq(PollReplyMsg{});
  if (type == kCoordType) return eq(CoordMsg{});
  if (type == kPh0Type) return eq(Ph0Msg{});
  if (type == kPh1Type) return eq(Ph1Msg{});
  if (type == kPh2Type) return eq(Ph2Msg{});
  if (type == kDecideType) return eq(DecideMsg{});
  if (type == kPh1QType) return eq(Ph1QMsg{});
  if (type == kPh2QType) return eq(Ph2QMsg{});
  if (type == smr::kSmrAppendType) return eq(smr::SmrAppendMsg{});
  if (type == smr::kSmrAckType) return eq(smr::SmrAckMsg{});
  if (type == smr::kSmrNewEpochType) return eq(smr::SmrNewEpochMsg{});
  if (type == smr::kSmrPromiseType) return eq(smr::SmrPromiseMsg{});
  if (type == smr::kSmrProposeType) return eq(smr::SmrProposeMsg{});
  throw std::logic_error("no comparator for registered type " + type);
}

// ------------------------------------------------------ frame round-trips

TEST(Codec, EveryRegisteredTypeHasGeneratorCoverage) {
  // If a new body codec is registered without extending the fuzzer, fail
  // loudly here rather than silently fuzzing a subset.
  for (const BodyCodec* c : builtin_codecs().all()) {
    Rng rng(1);
    EXPECT_NO_THROW({ (void)random_body(c->type, rng); }) << c->type;
  }
}

TEST(Codec, SeededFuzzRoundTripsEveryBodyType) {
  Rng rng(20260805);
  for (const BodyCodec* c : builtin_codecs().all()) {
    for (int iter = 0; iter < 200; ++iter) {
      const Message m = random_body(c->type, rng);
      const ProcIndex sender = static_cast<ProcIndex>(rng.index(64));
      const Id sender_id = static_cast<Id>(rng.uniform(0, 1 << 16));
      const auto frame = encode_frame(builtin_codecs(), m, sender, sender_id);
      ASSERT_EQ(frame.size(), encoded_frame_size(builtin_codecs(), m, sender, sender_id));
      const Message back = decode_frame(builtin_codecs(), frame.data(), frame.size());
      EXPECT_EQ(back.type, m.type);
      EXPECT_EQ(back.meta_sender, sender);
      EXPECT_TRUE(bodies_equal(c->type, m.body, back.body)) << c->type << " iter " << iter;
    }
  }
}

TEST(Codec, ControlFramesRoundTripAndNeverCollideWithBodies) {
  const auto hello = encode_control_frame(kTagHello, 3, 17);
  EXPECT_EQ(peek_tag(hello.data(), hello.size()), kTagHello);
  const Message m = decode_frame(builtin_codecs(), hello.data(), hello.size());
  EXPECT_EQ(m.meta_sender, 3u);
  for (const BodyCodec* c : builtin_codecs().all()) EXPECT_LT(c->tag, kCtrlTagFirst);
}

TEST(Codec, UnregisteredMessageTypeIsReportedNotEncoded) {
  const Message m = make_message("NOT_A_REAL_TYPE", AliveMsg{1});
  EXPECT_THROW(encode_frame(builtin_codecs(), m, 0, 1), CodecError);
  EXPECT_EQ(encoded_frame_size(builtin_codecs(), m, 0, 1), std::nullopt);
}

// --------------------------------------------------- malformed rejection

std::vector<std::uint8_t> sample_frame() {
  const Message m = make_message(OHPPolling::kPollType, PollingMsg{7, 42});
  return encode_frame(builtin_codecs(), m, 2, 42);
}

TEST(Codec, EveryTruncationOfAValidFrameIsRejected) {
  const auto frame = sample_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(decode_frame(builtin_codecs(), frame.data(), len), CodecError) << "len=" << len;
  }
}

TEST(Codec, EverySingleByteCorruptionIsRejectedOrEqual) {
  // Flipping any byte must either fail the checksum/structure or decode to
  // the same value (impossible here: FNV-1a covers every byte, so any flip
  // is caught). The point is NO undefined behaviour on arbitrary input.
  const auto frame = sample_frame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto bad = frame;
    bad[i] ^= 0x5A;
    EXPECT_THROW(decode_frame(builtin_codecs(), bad.data(), bad.size()), CodecError)
        << "byte " << i;
  }
}

TEST(Codec, SeededRandomGarbageNeverCrashesTheDecoder) {
  Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.index(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
    // Valid magic sometimes, to reach the deeper validation layers.
    if (junk.size() >= 4 && rng.chance(0.5)) {
      junk[0] = kWireMagic0;
      junk[1] = kWireMagic1;
      junk[2] = kWireVersion;
    }
    try {
      (void)decode_frame(builtin_codecs(), junk.data(), junk.size());
    } catch (const CodecError&) {
      // expected for essentially all inputs
    }
  }
}

TEST(Codec, WrongVersionAndTrailingBytesAreRejected) {
  auto frame = sample_frame();
  auto wrong_version = frame;
  wrong_version[2] = kWireVersion + 1;
  EXPECT_THROW(decode_frame(builtin_codecs(), wrong_version.data(), wrong_version.size()),
               CodecError);
  auto trailing = frame;
  trailing.push_back(0);
  EXPECT_THROW(decode_frame(builtin_codecs(), trailing.data(), trailing.size()), CodecError);
}

// ------------------------------------------- trace-context extension

TEST(Codec, TracedFrameRoundTripsCausalContextAndUntracedStaysBare) {
  Message m = make_message(OHPPolling::kPollType, PollingMsg{7, 42});
  // Node index folded into the high 16 bits; values chosen to need
  // multi-byte varints.
  m.meta_causal_id = (std::uint64_t{3} << 48) | 170739;
  m.meta_causal_parent = (std::uint64_t{1} << 48) | 5;
  m.meta_causal_clock = 99'999;
  const auto traced = encode_frame(builtin_codecs(), m, 2, 42);
  EXPECT_EQ(traced[2], kWireVersion | kWireTracedFlag);
  const Message back = decode_frame(builtin_codecs(), traced.data(), traced.size());
  EXPECT_EQ(back.meta_causal_id, m.meta_causal_id);
  EXPECT_EQ(back.meta_causal_parent, m.meta_causal_parent);
  EXPECT_EQ(back.meta_causal_clock, m.meta_causal_clock);
  EXPECT_EQ(back.meta_sender, 2u);
  EXPECT_TRUE(bodies_equal(OHPPolling::kPollType, m.body, back.body));

  // The same message without a lineage id encodes the bare v1 frame: no
  // flag, no extension bytes, zeroed meta on decode.
  const Message plain = make_message(OHPPolling::kPollType, PollingMsg{7, 42});
  const auto bare = encode_frame(builtin_codecs(), plain, 2, 42);
  EXPECT_EQ(bare[2], kWireVersion);
  EXPECT_LT(bare.size(), traced.size());
  const Message pback = decode_frame(builtin_codecs(), bare.data(), bare.size());
  EXPECT_EQ(pback.meta_causal_id, 0u);
  EXPECT_EQ(pback.meta_causal_clock, 0u);

  // Byte metering deliberately ignores the extension so counters stay
  // identical with tracing on or off.
  const auto metered = encoded_frame_size(builtin_codecs(), m, 2, 42);
  ASSERT_TRUE(metered.has_value());
  EXPECT_EQ(*metered, bare.size());
}

TEST(Codec, SeededFuzzRoundTripsTracedFramesOfEveryBodyType) {
  Rng rng(20260809);
  for (const BodyCodec* c : builtin_codecs().all()) {
    for (int iter = 0; iter < 50; ++iter) {
      Message m = random_body(c->type, rng);
      m.meta_causal_id = (static_cast<std::uint64_t>(rng.index(64)) << 48) |
                         (1 + static_cast<std::uint64_t>(rng.uniform(0, 1 << 20)));
      if (rng.chance(0.7)) {
        m.meta_causal_parent = (static_cast<std::uint64_t>(rng.index(64)) << 48) |
                               static_cast<std::uint64_t>(rng.uniform(0, 1 << 20));
      }
      m.meta_causal_clock = static_cast<std::uint64_t>(rng.uniform(0, 1 << 30));
      const auto frame = encode_frame(builtin_codecs(), m, 1, 9);
      const Message back = decode_frame(builtin_codecs(), frame.data(), frame.size());
      EXPECT_EQ(back.meta_causal_id, m.meta_causal_id) << c->type << " iter " << iter;
      EXPECT_EQ(back.meta_causal_parent, m.meta_causal_parent);
      EXPECT_EQ(back.meta_causal_clock, m.meta_causal_clock);
      EXPECT_TRUE(bodies_equal(c->type, m.body, back.body)) << c->type << " iter " << iter;
    }
  }
}

std::vector<std::uint8_t> sample_traced_frame() {
  Message m = make_message(OHPPolling::kPollType, PollingMsg{7, 42});
  m.meta_causal_id = (std::uint64_t{2} << 48) | 9;
  m.meta_causal_parent = (std::uint64_t{2} << 48) | 4;
  m.meta_causal_clock = 77;
  return encode_frame(builtin_codecs(), m, 2, 42);
}

TEST(Codec, EveryTruncationOfATracedFrameIsRejected) {
  const auto frame = sample_traced_frame();
  for (std::size_t len = 0; len < frame.size(); ++len) {
    EXPECT_THROW(decode_frame(builtin_codecs(), frame.data(), len), CodecError) << "len=" << len;
  }
}

TEST(Codec, EverySingleByteCorruptionOfATracedFrameIsRejected) {
  const auto frame = sample_traced_frame();
  for (std::size_t i = 0; i < frame.size(); ++i) {
    auto bad = frame;
    bad[i] ^= 0x5A;
    EXPECT_THROW(decode_frame(builtin_codecs(), bad.data(), bad.size()), CodecError)
        << "byte " << i;
  }
}

// ------------------------------------------------------- batch envelope

TEST(Batch, RoundTripsMultipleFrames) {
  BatchWriter w;
  EXPECT_TRUE(w.empty());
  Rng rng(7);
  std::vector<std::vector<std::uint8_t>> frames;
  for (const BodyCodec* c : builtin_codecs().all()) {
    const Message m = random_body(c->type, rng);
    frames.push_back(encode_frame(builtin_codecs(), m, 0, 9));
    w.add(frames.back());
  }
  EXPECT_EQ(w.frames(), frames.size());
  const auto datagram = w.take();
  EXPECT_TRUE(w.empty());
  const auto views = split_batch(datagram.data(), datagram.size());
  ASSERT_EQ(views.size(), frames.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    ASSERT_EQ(views[i].len, frames[i].size());
    EXPECT_EQ(std::vector<std::uint8_t>(views[i].data, views[i].data + views[i].len), frames[i]);
    // Each frame still decodes independently out of the batch.
    EXPECT_NO_THROW((void)decode_frame(builtin_codecs(), views[i].data, views[i].len));
  }
}

TEST(Batch, MalformedEnvelopesAreRejected) {
  BatchWriter w;
  w.add(sample_frame());
  const auto datagram = w.take();
  // Truncations.
  for (std::size_t len = 0; len < datagram.size(); ++len) {
    EXPECT_THROW((void)split_batch(datagram.data(), len), CodecError) << "len=" << len;
  }
  // Trailing garbage.
  auto trailing = datagram;
  trailing.push_back(0x7F);
  EXPECT_THROW((void)split_batch(trailing.data(), trailing.size()), CodecError);
  // A data frame is not a batch.
  const auto frame = sample_frame();
  EXPECT_THROW((void)split_batch(frame.data(), frame.size()), CodecError);
}

}  // namespace
}  // namespace hds::net
