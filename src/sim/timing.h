// Link timing models realizing the paper's synchrony assumptions.
//
//  - AsyncTiming     : HAS[...] — reliable links, arbitrary finite delays.
//  - PartialSyncTiming: HPS[...] — before the (unknown to processes) global
//    stabilization time GST a message may be lost or arbitrarily delayed;
//    a message sent at or after GST is delivered within delta. delta also
//    absorbs the bounded processing time of partially synchronous processes.
//  - BoundedTiming   : HSS links — every message is delivered within a known
//    bound. With a step timer no shorter than the bound it gives the
//    synchronous algorithms their lock-step rounds.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "common/rng.h"
#include "common/types.h"

namespace hds {

class TimingModel {
 public:
  virtual ~TimingModel() = default;

  // Delivery time of one copy of a message of `type` sent at `sent` from
  // `from` to `to`; std::nullopt means the copy is lost (only allowed
  // before GST in the partially synchronous model; never in the others).
  // Most models ignore `type`; the adversarial TypeBiasedTiming keys on it.
  virtual std::optional<SimTime> delivery_at(SimTime sent, ProcIndex from, ProcIndex to,
                                             const std::string& type, Rng& rng) = 0;

  // Lower bound on the delivery delay of any copy on any link: every
  // surviving copy arrives at or after sent + min_delay(). The sharded
  // engine uses this as the conservative-synchronization lookahead — a
  // cross-shard send issued inside a window can never land inside that
  // window. Every model's constructor enforces delays >= 1, so 1 is a
  // universally safe default.
  [[nodiscard]] virtual SimTime min_delay() const { return 1; }
};

// Arbitrary finite delays in [min_delay, max_delay], no loss.
class AsyncTiming final : public TimingModel {
 public:
  AsyncTiming(SimTime min_delay, SimTime max_delay);
  std::optional<SimTime> delivery_at(SimTime sent, ProcIndex from, ProcIndex to,
                                     const std::string& type, Rng& rng) override;
  [[nodiscard]] SimTime min_delay() const override { return min_delay_; }

 private:
  SimTime min_delay_;
  SimTime max_delay_;
};

// HPS: eventually timely links.
class PartialSyncTiming final : public TimingModel {
 public:
  // Pre-GST behaviour of one directed link, overriding the uniform
  // parameters. Overrides can express static partitions ("(1,3) loses
  // everything until GST") and asymmetric lossy/slow prefixes while keeping
  // GST semantics intact: a copy sent at or after GST is always delivered
  // within delta, whatever the override says.
  struct LinkOverride {
    double pre_gst_loss = 0.0;
    SimTime pre_gst_max_delay = 0;  // 0 = inherit the uniform pre_gst_max_delay
  };

  struct Params {
    SimTime gst = 0;            // global stabilization time
    SimTime delta = 1;          // post-GST latency bound (unknown to processes)
    double pre_gst_loss = 0.0;  // per-copy loss probability before GST
    SimTime pre_gst_max_delay = 1;  // max (finite) delay of surviving pre-GST copies
    // Per-directed-link pre-GST overrides, keyed (from, to).
    std::map<std::pair<ProcIndex, ProcIndex>, LinkOverride> pre_gst_links;
  };
  explicit PartialSyncTiming(Params p);
  std::optional<SimTime> delivery_at(SimTime sent, ProcIndex from, ProcIndex to,
                                     const std::string& type, Rng& rng) override;

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  Params params_;
};

// Every copy delivered within [1, bound]; reliable. Processes may rely on
// `bound` being known (synchronous model).
class BoundedTiming final : public TimingModel {
 public:
  explicit BoundedTiming(SimTime bound);
  std::optional<SimTime> delivery_at(SimTime sent, ProcIndex from, ProcIndex to,
                                     const std::string& type, Rng& rng) override;

 private:
  SimTime bound_;
};

// Adversarial, message-type-aware scheduling: each message type can be given
// its own fixed delay, optionally staggered per destination (so different
// receivers observe the same phase traffic in different orders). Reliable,
// delays bounded by the largest configured value — still an HAS link, but
// one that attacks a protocol's phase structure (e.g. stall every PH2 by 40
// ticks while PH1 flies). Used by the adversarial consensus tests.
class TypeBiasedTiming final : public TimingModel {
 public:
  struct Params {
    SimTime default_delay = 1;
    std::map<std::string, SimTime> delay_by_type;  // overrides per type
    SimTime per_destination_stagger = 0;           // adds to * stagger
  };
  explicit TypeBiasedTiming(Params p);
  std::optional<SimTime> delivery_at(SimTime sent, ProcIndex from, ProcIndex to,
                                     const std::string& type, Rng& rng) override;
  [[nodiscard]] SimTime min_delay() const override;

 private:
  Params params_;
};

// Asymmetric links: each directed link (from, to) has its own fixed base
// latency, drawn deterministically from `seed` within [min_delay,
// max_delay], plus per-copy jitter in [0, jitter]. Reliable. Models
// heterogeneous topologies (near/far nodes) that the uniform models cannot:
// a slow link slows one direction of one pair permanently. The effective
// global bound is max_delay + jitter.
class PerLinkTiming final : public TimingModel {
 public:
  PerLinkTiming(SimTime min_delay, SimTime max_delay, SimTime jitter, std::uint64_t seed);
  std::optional<SimTime> delivery_at(SimTime sent, ProcIndex from, ProcIndex to,
                                     const std::string& type, Rng& rng) override;

  [[nodiscard]] SimTime base_delay(ProcIndex from, ProcIndex to) const;
  [[nodiscard]] SimTime min_delay() const override { return min_delay_; }

 private:
  SimTime min_delay_;
  SimTime max_delay_;
  SimTime jitter_;
  std::uint64_t seed_;
};

}  // namespace hds
