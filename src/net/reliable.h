// Per-peer-link ARQ between the v1 codec and the UDP socket: the paper's
// algorithms assume reliable channels, this layer manufactures them out of
// lossy datagrams.
//
// Sender side, per directed link self -> peer:
//   - every wrapped data frame gets a 1-based sequence number and sits in a
//     bounded in-flight window until acknowledged;
//   - retransmission is driven by a Jacobson-estimated RTO (SRTT + 4*RTTVAR,
//     clamped to [rto_min, rto_max]) with exponential backoff plus seeded
//     jitter; RTT samples follow Karn's rule (only frames never
//     retransmitted time the link) and are taken at a frame's first ack,
//     selective or cumulative;
//   - when the window overflows or a frame exhausts its retry budget the
//     OLDEST frame is abandoned and the link's "lost floor" advances —
//     the floor rides every later frame so the receiver skips the abandoned
//     sequence numbers instead of wedging its cumulative ack (graceful
//     degradation, not silent deadlock).
//
// Receiver side, per directed link peer -> self:
//   - frames at cum+1 deliver immediately; frames past a gap park in a
//     bounded reorder buffer; frames at or below cum (or already parked)
//     are duplicates and are dropped, so delivery above the layer is
//     exactly-once and in order;
//   - acks are cumulative plus a 64-bit selective bitmap over
//     cum+1..cum+64, piggybacked on every reverse-direction data frame and
//     flushed as a standalone kTagRelAck control frame after kAckDelayMs
//     when the reverse direction is idle.
//
// Crash-restart: a process incarnation carries an epoch (bumped by the
// hds_cluster supervisor on every respawn). Frames and acks are stamped
// with the sender's epoch and the epoch being acked; seeing a higher epoch
// for a peer flushes both directions of that link — unacked payloads are
// re-queued under fresh sequence numbers so the new incarnation still
// receives what its predecessor never acknowledged — and anything stamped
// with a stale epoch is discarded.
//
// The wire encoding is a version-gated extension (kWireRelFlag) exactly
// like the trace context: reliability off never sets the flag and frames
// stay byte-identical to plain v1 (the golden fixtures pin both layouts).
//
// The channel is substrate-passive: it never touches a socket, a clock or a
// lock. Callers pass `now` in and send whatever the calls return, which is
// what makes the property tests deterministic (virtual time, scripted
// loss); the owning net::NodeCore serializes every call.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/link_fault.h"
#include "common/rng.h"
#include "common/types.h"
#include "fd/run_observer.h"
#include "net/codec.h"
#include "obs/metrics.h"
#include "sim/message.h"

namespace hds::net {

using RelTime = std::chrono::steady_clock::time_point;

// The 6-varint ARQ extension spliced into a v1 frame (see codec.h layout).
struct RelHeader {
  std::uint64_t epoch = 0;       // sender incarnation
  std::uint64_t seq = 0;         // per-link sequence number, 1-based
  std::uint64_t lost_floor = 0;  // receiver may skip every seq <= this
  std::uint64_t ack_epoch = 0;   // destination incarnation the acks refer to
  std::uint64_t ack_cum = 0;     // reverse direction: all seqs <= this held
  std::uint64_t ack_bits = 0;    // reverse direction: bitmap ack_cum+1..+64
};

// Splices the ARQ header into an encoded v1 frame (after the sender varints
// and any trace extension, before the body length) and recomputes the
// checksum. Throws CodecError if `inner` is not a well-formed frame.
std::vector<std::uint8_t> rel_wrap(const std::vector<std::uint8_t>& inner, const RelHeader& h);

// Reads the ARQ header back out of a frame; nullopt when the frame does not
// carry kWireRelFlag or is malformed. Does not validate the checksum —
// decode_frame does, and the transport runs it first.
std::optional<RelHeader> rel_peek(const std::uint8_t* data, std::size_t len);

// Standalone-ack body (rides a kTagRelAck control frame).
struct RelAckBody {
  std::uint64_t ack_epoch = 0;
  std::uint64_t ack_cum = 0;
  std::uint64_t ack_bits = 0;
};
std::vector<std::uint8_t> rel_ack_body(const RelAckBody& b);
std::optional<RelAckBody> parse_rel_ack_body(const std::uint8_t* data, std::size_t len);

// Rejoin / rejoin-ack body: the sender's incarnation epoch.
std::vector<std::uint8_t> rejoin_body(std::uint64_t epoch);
std::optional<std::uint64_t> parse_rejoin_body(const std::uint8_t* data, std::size_t len);

// Whether a node runs the ARQ at all; its tuning is ReliableChannel's
// constants.
struct RelConfig {
  bool enabled = false;
};

// Counter snapshot; every field also has a rel_* metrics-registry series.
struct RelStats {
  std::uint64_t data_sent = 0;          // first transmissions wrapped
  std::uint64_t retransmits = 0;        // timer-driven re-sends
  std::uint64_t acked = 0;              // in-flight frames confirmed
  std::uint64_t window_drops = 0;       // drop-oldest + retry-budget give-ups
  std::uint64_t reorder_drops = 0;      // reorder buffer overflow (retransmit covers)
  std::uint64_t acks_sent = 0;          // standalone ACK frames emitted
  std::uint64_t acks_received = 0;      // ack payloads processed
  std::uint64_t dup_frames = 0;         // receiver-side duplicates suppressed
  std::uint64_t out_of_order = 0;       // frames parked past a gap
  std::uint64_t skipped_lost = 0;       // seqs skipped via a peer's lost floor
  std::uint64_t delivered = 0;          // in-order messages handed up
  std::uint64_t stale_epoch_drops = 0;  // frames/acks from a dead incarnation
  std::uint64_t epoch_flushes = 0;      // per-link flushes on an epoch bump
  std::uint64_t requeued = 0;           // unacked payloads re-sent after a flush
};

// One frame the caller should transmit: retransmissions carry the original
// message type (so fault interposers judge them like any other copy);
// standalone acks carry type "REL_ACK".
struct RelSend {
  ProcIndex to = 0;
  std::string type;
  std::vector<std::uint8_t> frame;
};

class ReliableChannel {
 public:
  static constexpr std::size_t kWindow = 128;         // in-flight frames per link before drop-oldest
  static constexpr std::size_t kReorderBuffer = 256;  // parked out-of-order frames per link
  static constexpr SimTime kRtoInitialMs = 100;       // before the first RTT sample
  static constexpr SimTime kRtoMinMs = 20;            // floor of the RTT-estimated timeout
  static constexpr SimTime kRtoMaxMs = 2000;
  static constexpr SimTime kAckDelayMs = 15;  // standalone-ack latency when the link is idle
  static constexpr int kMaxRetransmits = 30;  // retry budget per frame, then lost-floor give-up

  // jitter_seed seeds the retransmission jitter.
  ReliableChannel(std::uint64_t jitter_seed, ProcIndex self, Id self_id, std::size_t n,
                  std::uint64_t self_epoch, obs::MetricsRegistry* metrics);

  [[nodiscard]] std::uint64_t self_epoch() const { return self_epoch_; }

  // Sender: assigns the next sequence number on self -> to, records the
  // frame in-flight, and returns the wrapped wire bytes for the first
  // transmission attempt (with the reverse direction's acks piggybacked).
  std::vector<std::uint8_t> wrap_data(ProcIndex to, const std::string& type,
                                      const std::vector<std::uint8_t>& inner, RelTime now);

  // Receiver: folds an arrived data frame's ARQ header in. Returns the
  // messages now deliverable, in order (possibly empty: duplicate, stale
  // epoch, or parked past a gap). Call note_peer_epoch and on_ack first.
  std::vector<Message> on_data(ProcIndex from, const RelHeader& h, Message m, RelTime now);

  // Ack payload from `from` (piggybacked or standalone). Ignored unless it
  // acks this incarnation.
  void on_ack(ProcIndex from, std::uint64_t ack_epoch, std::uint64_t ack_cum,
              std::uint64_t ack_bits, RelTime now);

  // Peer announced incarnation `epoch` (REJOIN frame or any data frame). A
  // higher epoch than known flushes both directions of the link; the
  // returned frames are the unacked payloads re-wrapped for the new
  // incarnation — transmit them now. No-op when the epoch is not news.
  std::vector<RelSend> note_peer_epoch(ProcIndex peer, std::uint64_t epoch, RelTime now);

  // Due retransmissions and standalone acks; call when next_deadline is due.
  std::vector<RelSend> tick(RelTime now);

  // Earliest instant tick() has work; nullopt when fully idle.
  [[nodiscard]] std::optional<RelTime> next_deadline() const;

  [[nodiscard]] const RelStats& stats() const { return st_; }

 private:
  struct Inflight {
    std::uint64_t seq = 0;
    std::string type;
    std::vector<std::uint8_t> inner;  // unwrapped v1 frame; re-wrapped per attempt
    RelTime first_sent{};
    RelTime next_due{};
    SimTime rto_ms = 0;
    int attempts = 1;
    bool sacked = false;  // selectively acked; held until cum covers it
  };
  struct SendLink {
    std::uint64_t next_seq = 1;
    std::uint64_t lost_floor = 0;
    std::deque<Inflight> window;  // ascending seq
    double srtt_ms = 0;
    double rttvar_ms = 0;
    bool have_rtt = false;
  };
  struct RecvLink {
    std::uint64_t epoch = 0;  // last incarnation seen for this peer
    std::uint64_t cum = 0;    // delivered (or floor-skipped) through here
    std::map<std::uint64_t, Message> ooo;
    bool ack_pending = false;
    RelTime ack_due{};
  };

  [[nodiscard]] SimTime current_rto(const SendLink& s) const;
  [[nodiscard]] static std::uint64_t ack_bits_of(const RecvLink& r);
  // Builds the header for (to, seq) and marks the piggybacked acks as sent.
  RelHeader header_for(ProcIndex to, std::uint64_t seq, const SendLink& s);
  void update_rtt(SendLink& s, double sample_ms);
  void drain_ready(RecvLink& r, std::vector<Message>& out);

  ProcIndex self_;
  Id self_id_;
  std::uint64_t self_epoch_;
  std::vector<SendLink> send_;
  std::vector<RecvLink> recv_;
  Rng rng_;
  RelStats st_;

  obs::Counter* m_data_sent_ = nullptr;
  obs::Counter* m_retransmits_ = nullptr;
  obs::Counter* m_acked_ = nullptr;
  obs::Counter* m_window_drops_ = nullptr;
  obs::Counter* m_reorder_drops_ = nullptr;
  obs::Counter* m_acks_sent_ = nullptr;
  obs::Counter* m_acks_received_ = nullptr;
  obs::Counter* m_dup_frames_ = nullptr;
  obs::Counter* m_out_of_order_ = nullptr;
  obs::Counter* m_skipped_lost_ = nullptr;
  obs::Counter* m_delivered_ = nullptr;
  obs::Counter* m_stale_epoch_ = nullptr;
  obs::Counter* m_epoch_flushes_ = nullptr;
  obs::Counter* m_requeued_ = nullptr;
  obs::Histogram* m_rtt_ms_ = nullptr;
};

// Mirrors the ARQ layer's recovery semantics behind the LinkInterposer seam
// so the deterministic sim can run the SAME chaos plans a reliable cluster
// survives: a copy the inner interposer would drop is re-judged at
// retransmission-spaced future instants until an attempt gets through (the
// verdict's extra delay accumulates the recovery time), and injected
// duplicates are suppressed (the dedup window would discard them anyway).
// After kMaxAttempts the copy is dropped for real — the same bounded
// retry budget / lost-floor degradation the live layer applies.
//
// Consumes no randomness of its own, so a chaos case replays byte-identically.
// As a RunObserver it installs itself as the system's interposer; listed
// after the observer it wraps, it replaces that observer's seam.
class ReliableLinkEmulator final : public LinkInterposer, public RunObserver {
 public:
  static constexpr int kMaxAttempts = 12;  // cumulative backoff spans > 4s, past any GST

  explicit ReliableLinkEmulator(LinkInterposer& inner) : inner_(inner) {}

  CopyVerdict on_copy(SimTime now, ProcIndex from, ProcIndex to, const std::string& type) override;
  void attach(System& sys) override;

  [[nodiscard]] std::uint64_t recovered() const { return recovered_; }
  [[nodiscard]] std::uint64_t dedup_suppressed() const { return dedup_suppressed_; }
  [[nodiscard]] std::uint64_t given_up() const { return given_up_; }

 private:
  LinkInterposer& inner_;
  std::uint64_t recovered_ = 0;
  std::uint64_t dedup_suppressed_ = 0;
  std::uint64_t given_up_ = 0;
};

}  // namespace hds::net
