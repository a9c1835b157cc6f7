// Deterministic random source for the simulator and workload generators.
//
// Every run is parameterized by a single seed so that any test failure or
// benchmark row can be replayed exactly.
#pragma once

#include <cstdint>
#include <random>

namespace hds {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  // Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  // Uniform real in [0, 1).
  double uniform01();

  // Bernoulli trial.
  bool chance(double p);

  // Uniformly chosen index in [0, n).
  std::size_t index(std::size_t n);

  // Derives an independent child generator (for per-process streams).
  Rng fork();

  // An independent generator for stream `stream` of base seed `seed`
  // (splitmix64 finalizer over the pair). The parallel experiment engine
  // gives task k the stream-k generator, so a task's draws depend only on
  // (seed, k) — never on which worker thread ran it or in what order.
  static Rng derived(std::uint64_t seed, std::uint64_t stream);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace hds
