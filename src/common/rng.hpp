// Deterministic random number generation for synthetic radar scenes.
//
// All scenario generation is seeded, so every test, example, and benchmark
// sees an identical CPI stream for a given seed regardless of the order in
// which threads consume the data.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace ppstap {

/// SplitMix64-based generator with explicit, portable normal/uniform
/// sampling (independent of libstdc++ distribution internals).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// Next raw 64-bit value (SplitMix64).
  std::uint64_t next_u64();

  /// Jump ahead: equivalent to `n` calls of next_u64() (SplitMix64's state
  /// is a Weyl sequence, so this is one multiply-add). The cached second
  /// Box–Muller sample, if any, is left as it is.
  void discard(std::uint64_t n) { state_ += n * kGamma; }

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Standard normal via Box–Muller (uses two uniforms per pair; caches the
  /// second sample).
  double normal();

  /// Complex circular Gaussian with E|z|^2 = 1. With no cached sample it
  /// consumes exactly two next_u64() draws and leaves none cached, so the
  /// m-th cnormal() of a fresh stream starts at draw 2(m - 1).
  cdouble cnormal();

  /// Derive an independent stream (e.g. one per range cell or per CPI).
  Rng fork(std::uint64_t salt) const;

 private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ULL;
  std::uint64_t state_;
  bool have_cached_ = false;
  double cached_ = 0.0;
};

}  // namespace ppstap
