// The v1 frame format and the per-message-type codec registry.
//
// A frame carries exactly one Message across a process boundary:
//
//   offset 0   u8      magic 'H'
//          1   u8      magic 'S'
//          2   u8      version (1), OR'd with kWireTracedFlag (0x80) when
//                      the optional trace-context extension is present
//          3   u8      body type tag (see codecs_builtin.cpp; >= 0xF0 are
//                      transport-control frames that never reach a Process)
//          4   varint  sender node index (instrumentation -> meta_sender;
//                      protocol code never reads it, matching the model's
//                      "the receiver cannot identify the link")
//          ..  varint  sender identifier (the homonymous id/label)
//          [traced frames only — the causal context, obs/causal.h:]
//          ..  varint  lineage id of this send
//          ..  varint  lineage id of the causing event
//          ..  varint  Lamport clock at the send
//          [end of extension]
//          [reliable frames only — the ARQ header, net/reliable.h; marked
//           by kWireRelFlag (0x40) in the version byte:]
//          ..  varint  sender incarnation epoch
//          ..  varint  per-link sequence number (1-based)
//          ..  varint  lost floor (receiver may skip every seq <= this)
//          ..  varint  acked epoch (the destination incarnation being acked)
//          ..  varint  cumulative ack for the reverse direction
//          ..  varint  selective-ack bitmap over ack_cum+1 .. ack_cum+64
//          [end of extension]
//          ..  varint  body length in bytes
//          ..  bytes   body (encoded by the tag's registered codec)
//          ..  u32le   FNV-1a checksum of every preceding byte
//
// Frames sent with tracing off carry a bare version byte and are
// byte-identical to pre-extension v1 frames (the golden fixtures pin this).
//
// A datagram coalesces frames (send batching):
//
//   u8 'H', u8 'B', u8 version, varint frame count,
//   then per frame: varint frame length, frame bytes.
//
// The layout is frozen by the golden fixtures under tests/wire/ — an
// incompatible edit must bump kWireVersion and regenerate them.
//
// The registry maps a Message::type string to a (tag, encode, decode)
// triple. Bodies travel as std::any exactly as they do in-process; the
// registered functions are the only place that knows the concrete struct.
// builtin_codecs() covers every FD and consensus body in the library, so
// any stack the harness can assemble can cross a socket unchanged.
#pragma once

#include <any>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/wire.h"
#include "sim/message.h"

namespace hds::net {

inline constexpr std::uint8_t kWireMagic0 = 'H';
inline constexpr std::uint8_t kWireMagic1 = 'S';
inline constexpr std::uint8_t kBatchMagic1 = 'B';
inline constexpr std::uint8_t kWireVersion = 1;
// Version-byte flag marking the optional causal trace-context extension
// (3 varints between the sender-id varint and the body-length varint). A
// frame is traced iff the Message carried a nonzero meta_causal_id.
inline constexpr std::uint8_t kWireTracedFlag = 0x80;
// Version-byte flag marking the optional ARQ header (6 varints right before
// the body-length varint). Plain frames stay byte-identical to pre-extension
// v1 — reliability off never sets the flag.
inline constexpr std::uint8_t kWireRelFlag = 0x40;
inline constexpr std::uint8_t kWireVersionMask = 0x3F;

// Transport-control tags (handled by the substrate, never dispatched to a
// Process; HELLO/HELLO-ACK bodies are empty, the ARQ-era tags carry small
// varint bodies parsed by net/reliable.h helpers).
inline constexpr std::uint8_t kCtrlTagFirst = 0xF0;
inline constexpr std::uint8_t kTagHello = 0xF0;      // peer-barrier probe
inline constexpr std::uint8_t kTagHelloAck = 0xF1;   // probe answer
inline constexpr std::uint8_t kTagRelAck = 0xF2;     // standalone ARQ ack
inline constexpr std::uint8_t kTagRejoin = 0xF3;     // restart barrier probe (carries epoch)
inline constexpr std::uint8_t kTagRejoinAck = 0xF4;  // rejoin answer (carries epoch)

struct BodyCodec {
  std::uint8_t tag = 0;
  std::string type;  // Message::type routing string
  std::function<void(const std::any& body, WireWriter&)> encode;
  std::function<std::any(WireReader&)> decode;
};

class CodecRegistry {
 public:
  // Throws std::logic_error on a duplicate tag or type, or a control-range
  // tag — registration bugs, not wire faults.
  void add(BodyCodec c);

  [[nodiscard]] const BodyCodec* by_type(const std::string& type) const;
  [[nodiscard]] const BodyCodec* by_tag(std::uint8_t tag) const;
  [[nodiscard]] std::vector<const BodyCodec*> all() const;

 private:
  std::map<std::string, BodyCodec> by_type_;
  std::map<std::uint8_t, const BodyCodec*> by_tag_;
};

// The registry covering every message body in the library (Figs. 3-9, AP,
// heartbeats). Built once, immutable afterwards, safe to share across
// threads.
const CodecRegistry& builtin_codecs();

// One frame. Throws CodecError when the type has no registered codec.
// When m.meta_causal_id != 0 the frame carries the trace-context extension.
std::vector<std::uint8_t> encode_frame(const CodecRegistry& reg, const Message& m,
                                       ProcIndex sender_index, Id sender_id);

// Inverse. Validates magic, version, tag, length, and checksum; fills
// meta_sender from the header and meta_causal_* from the trace-context
// extension when present. Throws CodecError on any malformation.
Message decode_frame(const CodecRegistry& reg, const std::uint8_t* data, std::size_t len);

// A control frame (tag >= kCtrlTagFirst) with an empty body.
std::vector<std::uint8_t> encode_control_frame(std::uint8_t tag, ProcIndex sender_index,
                                               Id sender_id);

// A control frame carrying a raw body (the ARQ ack / rejoin payloads). The
// body is NOT run through the codec registry; net/reliable.h owns its layout.
std::vector<std::uint8_t> encode_control_frame(std::uint8_t tag, ProcIndex sender_index,
                                               Id sender_id, const std::vector<std::uint8_t>& body);

// Locates the body bytes of an already-checksum-validated control frame
// (call decode_frame first; it validates the envelope but deliberately does
// not expose control bodies to Process code). Returns nullopt on any
// malformation instead of throwing — the recv path treats that as a decode
// error it has already counted.
struct ControlBody {
  const std::uint8_t* data = nullptr;
  std::size_t len = 0;
};
std::optional<ControlBody> peek_control_body(const std::uint8_t* data, std::size_t len);

// Peeks the type tag of an encoded frame without validating the rest.
std::optional<std::uint8_t> peek_tag(const std::uint8_t* data, std::size_t len);

// Encoded v1 frame size of `m` as sent by (sender_index, sender_id);
// nullopt when the type is unregistered. This is what the simulator uses to
// estimate byte costs comparably with the UDP substrate. Computed by
// a counting encoder — nothing is materialized, nothing allocates.
// Deliberately the UNTRACED frame size (the causal extension is excluded)
// so byte accounting stays identical with tracing on or off.
std::optional<std::size_t> encoded_frame_size(const CodecRegistry& reg, const Message& m,
                                              ProcIndex sender_index, Id sender_id);

// Decomposed pieces of encoded_frame_size, for byte meters that memoize the
// per-sender envelope and the per-type codec resolution (the simulator):
// frame size = frame_overhead + varint_size(body) + body.
std::size_t frame_overhead(ProcIndex sender_index, Id sender_id);
std::size_t encoded_body_size(const BodyCodec& c, const Message& m);

// ------------------------------------------------------------- batching

// Accumulates frames into one datagram payload.
class BatchWriter {
 public:
  void add(const std::vector<std::uint8_t>& frame);
  [[nodiscard]] std::size_t frames() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }
  // Size of the datagram that take() would produce right now.
  [[nodiscard]] std::size_t wire_size() const;
  // Finishes the datagram (header + frames) and resets the writer.
  std::vector<std::uint8_t> take();

 private:
  std::vector<std::uint8_t> frames_bytes_;  // already length-prefixed
  std::size_t count_ = 0;
};

// Splits a received datagram back into frames (views into `data`). Throws
// CodecError on a malformed envelope; individual frames are NOT validated
// here (decode_frame does that per frame, so one corrupt frame cannot take
// down its batch-mates before the envelope is walked).
struct FrameView {
  const std::uint8_t* data;
  std::size_t len;
};
std::vector<FrameView> split_batch(const std::uint8_t* data, std::size_t len);

}  // namespace hds::net
