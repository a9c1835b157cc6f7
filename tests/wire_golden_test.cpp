// Golden wire-format fixtures: freezes the v1 frame layout.
//
// Each registered body type has one fixed sample message; its encoded frame
// is compared byte-for-byte against the committed tests/wire/<type>.bin.
// If any of these fail, the change is wire-incompatible: a v1 hds_node can
// no longer talk to the new build. Either revert the layout change or bump
// kWireVersion and regenerate the fixtures with:
//
//   HDS_REGEN_WIRE=1 ./wire_golden_test
//
// (then commit the new tests/wire/*.bin alongside the version bump).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/label.h"
#include "common/multiset.h"
#include "consensus/messages.h"
#include "fd/impl/alive_ranker.h"
#include "fd/impl/ap_sync.h"
#include "fd/impl/homega_heartbeat.h"
#include "fd/impl/hsigma_sync.h"
#include "fd/impl/ohp_polling.h"
#include "net/codec.h"
#include "net/reliable.h"
#include "smr/types.h"
#include "smr/workload.h"

namespace hds::net {
namespace {

std::set<Label> sample_labels() {
  Multiset<Id> a;
  a.insert(1);
  a.insert(1);
  a.insert(2);
  Multiset<Id> b;
  b.insert(3);
  return {Label::of_multiset(a), Label::of_multiset(b)};
}

// One deterministic sample per registered type, sent by index 2 / id 7.
// Values are arbitrary but varied enough to exercise multi-byte varints,
// negative zigzags, and the optional/absent MaybeValue arm.
std::map<std::string, Message> sample_messages() {
  std::map<std::string, Message> out;
  const auto put = [&](Message m) { out[m.type] = std::move(m); };
  put(make_message(AliveRanker::kMsgType, AliveMsg{300}));
  put(make_message(APComponent::kMsgType, ApAliveMsg{}));
  put(make_message(HOmegaHeartbeat::kMsgType, HeartbeatMsg{9, 12345}));
  put(make_message(HSigmaComponent::kMsgType, IdentMsg{130}));
  put(make_message(OHPPolling::kPollType, PollingMsg{17, 42}));
  put(make_message(OHPPolling::kReplyType, PollReplyMsg{3, 17, 42, 7}));
  put(make_message(kCoordType, CoordMsg{7, 4, -250, 1}));
  put(make_message(kPh0Type, Ph0Msg{2, 101, 0}));
  put(make_message(kPh1Type, Ph1Msg{5, -3, 2}));
  put(make_message(kPh2Type, Ph2Msg{6, std::nullopt, 0}));
  put(make_message(kDecideType, DecideMsg{102, 3}));
  put(make_message(kPh1QType, Ph1QMsg{7, 8, 6, sample_labels(), 103, 1}));
  put(make_message(kPh2QType, Ph2QMsg{7, 9, 7, sample_labels(), MaybeValue{104}, -1}));
  // SMR bodies: ops with and without padding, nested batches, commit
  // records, a multi-entry promise.
  const smr::SmrOp op1{smr::kClientStride + 3, 11, 42, -5, {}};
  const smr::SmrOp op2{2 * smr::kClientStride, 1, 300, 77, {0xAB, 0xCD}};
  const smr::SmrBatch batch{smr::make_batch_id(1, 9), {op1, op2}};
  put(make_message(smr::kSmrAppendType,
                   smr::SmrAppendMsg{5, 12, batch, {{10, smr::make_batch_id(0, 4)}, {11, 0}}}));
  put(make_message(smr::kSmrAckType,
                   smr::SmrAckMsg{5, 2, 12, 10, 11, {{11, smr::make_batch_id(2, 1)}}, {op1}}));
  put(make_message(smr::kSmrNewEpochType, smr::SmrNewEpochMsg{8, 13, 2}));
  put(make_message(smr::kSmrPromiseType,
                   smr::SmrPromiseMsg{8,
                                      1,
                                      10,
                                      {{11, 5, true, batch},
                                       {12, 5, false, smr::SmrBatch{smr::kNoopBatchId, {}}}}}));
  put(make_message(smr::kSmrProposeType, smr::SmrProposeMsg{8, 12, batch}));
  return out;
}

std::string fixture_path(const BodyCodec& c) {
  return std::string(HDS_WIRE_DIR) + "/tag" + (c.tag < 10 ? "0" : "") + std::to_string(c.tag) +
         "_" + c.type + ".bin";
}

std::vector<std::uint8_t> read_bin(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) ADD_FAILURE() << "missing fixture " << path << " (run with HDS_REGEN_WIRE=1)";
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(WireGolden, V1FrameLayoutIsFrozen) {
  const bool regen = std::getenv("HDS_REGEN_WIRE") != nullptr;
  auto samples = sample_messages();
  for (const BodyCodec* c : builtin_codecs().all()) {
    ASSERT_TRUE(samples.count(c->type)) << "no golden sample for registered type " << c->type;
    const auto frame = encode_frame(builtin_codecs(), samples.at(c->type), /*sender_index=*/2,
                                    /*sender_id=*/7);
    const std::string path = fixture_path(*c);
    if (regen) {
      std::ofstream out(path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(frame.data()),
                static_cast<std::streamsize>(frame.size()));
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      continue;
    }
    EXPECT_EQ(frame, read_bin(path))
        << c->type << ": encoded frame diverges from the committed v1 fixture";
  }
  // No stale fixtures for since-unregistered types: count must match.
  ASSERT_EQ(samples.size(), builtin_codecs().all().size());
}

TEST(WireGolden, FixturesStillDecodeToTheSampleValues) {
  if (std::getenv("HDS_REGEN_WIRE") != nullptr) GTEST_SKIP() << "regen run";
  auto samples = sample_messages();
  for (const BodyCodec* c : builtin_codecs().all()) {
    const auto bytes = read_bin(fixture_path(*c));
    ASSERT_FALSE(bytes.empty());
    const Message m = decode_frame(builtin_codecs(), bytes.data(), bytes.size());
    EXPECT_EQ(m.type, c->type);
    EXPECT_EQ(m.meta_sender, 2u);
  }
}

TEST(WireGolden, TraceContextExtensionLayoutIsFrozen) {
  // The optional causal extension (version byte OR kWireTracedFlag, then
  // lineage id / parent / Lamport clock varints between the sender id and
  // the body length). One fixture pins its layout; the per-type fixtures
  // above pin that untraced frames carry none of it.
  Message m = sample_messages().at(OHPPolling::kPollType);
  m.meta_causal_id = (std::uint64_t{2} << 48) | 9;
  m.meta_causal_parent = (std::uint64_t{2} << 48) | 4;
  m.meta_causal_clock = 77;
  const auto frame = encode_frame(builtin_codecs(), m, /*sender_index=*/2, /*sender_id=*/7);
  ASSERT_EQ(frame[2], kWireVersion | kWireTracedFlag);
  const std::string path = std::string(HDS_WIRE_DIR) + "/ext_trace_context.bin";
  if (std::getenv("HDS_REGEN_WIRE") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  EXPECT_EQ(frame, read_bin(path)) << "traced frame diverges from the committed fixture";
  const Message back = decode_frame(builtin_codecs(), frame.data(), frame.size());
  EXPECT_EQ(back.meta_causal_id, m.meta_causal_id);
  EXPECT_EQ(back.meta_causal_parent, m.meta_causal_parent);
  EXPECT_EQ(back.meta_causal_clock, m.meta_causal_clock);
}

TEST(WireGolden, RelHeaderExtensionLayoutIsFrozen) {
  // The optional ARQ extension (version byte OR kWireRelFlag, then the six
  // epoch/seq/floor/ack varints right before the body length). One fixture
  // pins its layout; the per-type fixtures above pin that reliability-off
  // frames stay byte-identical to plain v1.
  const auto inner = encode_frame(builtin_codecs(), sample_messages().at(OHPPolling::kPollType),
                                  /*sender_index=*/2, /*sender_id=*/7);
  RelHeader h;
  h.epoch = 1;
  h.seq = 300;  // multi-byte varint
  h.lost_floor = 2;
  h.ack_epoch = 1;
  h.ack_cum = 129;
  h.ack_bits = 0b1011;
  const auto frame = rel_wrap(inner, h);
  ASSERT_EQ(frame[2], kWireVersion | kWireRelFlag);
  const std::string path = std::string(HDS_WIRE_DIR) + "/ext_rel_header.bin";
  if (std::getenv("HDS_REGEN_WIRE") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    return;
  }
  EXPECT_EQ(frame, read_bin(path)) << "ARQ-wrapped frame diverges from the committed fixture";
  const auto back = rel_peek(frame.data(), frame.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->seq, h.seq);
  EXPECT_EQ(back->ack_cum, h.ack_cum);
  EXPECT_NO_THROW(decode_frame(builtin_codecs(), frame.data(), frame.size()));
}

TEST(WireGolden, ControlFrameLayoutIsFrozen) {
  // Control frames never cross versions (they only exist inside one
  // cluster), but the HELLO bytes are still pinned so a layout slip shows
  // up here instead of as a silent peer-barrier hang between builds.
  const auto hello = encode_control_frame(kTagHello, 2, 7);
  const std::vector<std::uint8_t> expected = {
      'H', 'S', 1, 0xF0, 2, 7, 0,              // header, empty body
      hello[7], hello[8], hello[9], hello[10],  // checksum (covered below)
  };
  ASSERT_EQ(hello.size(), 11u);
  EXPECT_EQ(hello, expected);
  EXPECT_EQ(fnv1a(hello.data(), 7), static_cast<std::uint32_t>(hello[7]) |
                                        (static_cast<std::uint32_t>(hello[8]) << 8) |
                                        (static_cast<std::uint32_t>(hello[9]) << 16) |
                                        (static_cast<std::uint32_t>(hello[10]) << 24));
}

}  // namespace
}  // namespace hds::net
