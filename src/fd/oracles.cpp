#include "fd/oracles.h"

#include <stdexcept>

#include "sim/system.h"

namespace hds {

namespace {

// Deterministic mixing for pseudo-random (but replayable) oracle noise.
std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t x = a * 0x9e3779b97f4a7c15ULL + b * 0xbf58476d1ce4e5b9ULL +
                    c * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  return x;
}

void require_some_correct(const GroundTruth& gt) {
  for (bool c : gt.correct) {
    if (c) return;
  }
  throw std::invalid_argument("oracle: at least one correct process required");
}

}  // namespace

// ---------------------------------------------------------------- OracleHOmega

class OracleHOmega::H final : public HOmegaHandle {
 public:
  H(const OracleHOmega& o, ProcIndex p) : o_(o), p_(p) {}
  [[nodiscard]] HOmegaOut h_omega() const override {
    const SimTime t = o_.now_();
    if (t >= o_.stabilize_at_ || o_.noise_ == Noise::kNone) return o_.stable_;
    // Rotating, per-process-divergent leaders with bogus multiplicities.
    const std::uint64_t h = mix(p_, static_cast<std::uint64_t>(t / 3), 17);
    return HOmegaOut{o_.gt_.ids[h % o_.gt_.n()], 1 + static_cast<std::size_t>(h % 3)};
  }

 private:
  const OracleHOmega& o_;
  ProcIndex p_;
};

OracleHOmega::OracleHOmega(GroundTruth gt, ClockFn now, SimTime stabilize_at, Noise noise)
    : gt_(std::move(gt)), now_(std::move(now)), stabilize_at_(stabilize_at), noise_(noise) {
  require_some_correct(gt_);
  const Multiset<Id> correct = gt_.correct_ids();
  stable_ = HOmegaOut{correct.min(), correct.multiplicity(correct.min())};
  for (ProcIndex p = 0; p < gt_.n(); ++p) handles_.push_back(std::make_unique<H>(*this, p));
}

// ------------------------------------------------------------------- OracleOHP

class OracleOHP::H final : public OHPHandle {
 public:
  H(const OracleOHP& o, ProcIndex p) : o_(o), p_(p) {}
  [[nodiscard]] Multiset<Id> h_trusted() const override {
    const SimTime t = o_.now_();
    if (t >= o_.stabilize_at_ || o_.noise_ == Noise::kNone) return o_.gt_.correct_ids();
    const std::uint64_t h = mix(p_, static_cast<std::uint64_t>(t / 2), 23);
    if (h % 2 == 0) return o_.gt_.all_ids();
    return Multiset<Id>{o_.gt_.ids[h % o_.gt_.n()]};
  }

 private:
  const OracleOHP& o_;
  ProcIndex p_;
};

OracleOHP::OracleOHP(GroundTruth gt, ClockFn now, SimTime stabilize_at, Noise noise)
    : gt_(std::move(gt)), now_(std::move(now)), stabilize_at_(stabilize_at), noise_(noise) {
  require_some_correct(gt_);
  for (ProcIndex p = 0; p < gt_.n(); ++p) handles_.push_back(std::make_unique<H>(*this, p));
}

// ---------------------------------------------------------------- OracleHSigma

class OracleHSigma::H final : public HSigmaHandle {
 public:
  H(const OracleHSigma& o, ProcIndex p) : o_(o), p_(p) {}
  [[nodiscard]] HSigmaSnapshot snapshot() const override {
    static const Label kAll = Label::of_text("all");
    static const Label kCorrect = Label::of_text("correct");
    HSigmaSnapshot s;
    s.labels.insert(kAll);
    s.quora.emplace(kAll, o_.gt_.all_ids());
    if (o_.now_() >= o_.stabilize_at_) {
      if (o_.gt_.correct[p_]) s.labels.insert(kCorrect);
      s.quora.emplace(kCorrect, o_.gt_.correct_ids());
    }
    return s;
  }

 private:
  const OracleHSigma& o_;
  ProcIndex p_;
};

OracleHSigma::OracleHSigma(GroundTruth gt, ClockFn now, SimTime stabilize_at)
    : gt_(std::move(gt)), now_(std::move(now)), stabilize_at_(stabilize_at) {
  require_some_correct(gt_);
  for (ProcIndex p = 0; p < gt_.n(); ++p) handles_.push_back(std::make_unique<H>(*this, p));
}

// ----------------------------------------------------------------- OracleSigma

class OracleSigma::H final : public SigmaHandle {
 public:
  H(const OracleSigma& o, ProcIndex p) : o_(o), p_(p) {}
  [[nodiscard]] Multiset<Id> trusted() const override {
    const SimTime t = o_.now_();
    if (o_.mode_ == Mode::kCoarse) {
      return t >= o_.stabilize_at_ ? o_.gt_.correct_ids() : o_.gt_.all_ids();
    }
    // kPivot: always contains the pivot (pairwise intersection guaranteed);
    // faulty ids may appear before stabilization only.
    Multiset<Id> out;
    out.insert(o_.pivot_);
    const bool stable = t >= o_.stabilize_at_;
    for (ProcIndex q = 0; q < o_.gt_.n(); ++q) {
      if (o_.gt_.ids[q] == o_.pivot_) continue;
      if (stable && !o_.gt_.correct[q]) continue;
      if (mix(p_, static_cast<std::uint64_t>(t / 5), q) % 2 == 0) out.insert(o_.gt_.ids[q]);
    }
    return out;
  }

 private:
  const OracleSigma& o_;
  ProcIndex p_;
};

OracleSigma::OracleSigma(GroundTruth gt, ClockFn now, SimTime stabilize_at, Mode mode)
    : gt_(std::move(gt)), now_(std::move(now)), stabilize_at_(stabilize_at), mode_(mode) {
  require_some_correct(gt_);
  pivot_ = gt_.correct_ids().min();
  for (ProcIndex p = 0; p < gt_.n(); ++p) handles_.push_back(std::make_unique<H>(*this, p));
}

// -------------------------------------------------------------------- OracleAP

class OracleAP::H final : public APHandle {
 public:
  H(const OracleAP& o, ProcIndex p) : o_(o), p_(p) {}
  [[nodiscard]] std::size_t anap() const override {
    const SimTime t = o_.now_();
    if (t >= o_.stabilize_at_) return o_.gt_.correct_ids().size();
    if (o_.alive_count_) return o_.alive_count_(t);
    return o_.gt_.n();
  }

 private:
  const OracleAP& o_;
  ProcIndex p_;
};

OracleAP::OracleAP(GroundTruth gt, ClockFn now, SimTime stabilize_at,
                   std::function<std::size_t(SimTime)> alive_count)
    : gt_(std::move(gt)),
      now_(std::move(now)),
      stabilize_at_(stabilize_at),
      alive_count_(std::move(alive_count)) {
  require_some_correct(gt_);
  for (ProcIndex p = 0; p < gt_.n(); ++p) handles_.push_back(std::make_unique<H>(*this, p));
}

// ---------------------------------------------------------------- OracleASigma

class OracleASigma::H final : public ASigmaHandle {
 public:
  H(const OracleASigma& o, ProcIndex p) : o_(o), p_(p) {}
  [[nodiscard]] std::vector<ASigmaPair> a_sigma() const override {
    std::vector<ASigmaPair> out{{0, o_.gt_.n()}};
    if (o_.now_() >= o_.stabilize_at_ && o_.gt_.correct[p_]) {
      out.push_back({1, o_.gt_.correct_ids().size()});
    }
    return out;
  }

 private:
  const OracleASigma& o_;
  ProcIndex p_;
};

OracleASigma::OracleASigma(GroundTruth gt, ClockFn now, SimTime stabilize_at)
    : gt_(std::move(gt)), now_(std::move(now)), stabilize_at_(stabilize_at) {
  require_some_correct(gt_);
  for (ProcIndex p = 0; p < gt_.n(); ++p) handles_.push_back(std::make_unique<H>(*this, p));
}

// ---------------------------------------------------------------- OracleAOmega

class OracleAOmega::H final : public AOmegaHandle {
 public:
  H(const OracleAOmega& o, ProcIndex p) : o_(o), p_(p) {}
  [[nodiscard]] bool a_leader() const override {
    const SimTime t = o_.now_();
    if (t >= o_.stabilize_at_) return p_ == o_.stable_leader_;
    return mix(p_, static_cast<std::uint64_t>(t / 4), 31) % o_.gt_.n() == 0;
  }

 private:
  const OracleAOmega& o_;
  ProcIndex p_;
};

OracleAOmega::OracleAOmega(GroundTruth gt, ClockFn now, SimTime stabilize_at)
    : gt_(std::move(gt)), now_(std::move(now)), stabilize_at_(stabilize_at) {
  require_some_correct(gt_);
  stable_leader_ = gt_.correct_indices().front();
  for (ProcIndex p = 0; p < gt_.n(); ++p) handles_.push_back(std::make_unique<H>(*this, p));
}

}  // namespace hds
