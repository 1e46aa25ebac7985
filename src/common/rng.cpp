#include "common/rng.hpp"

#include <cmath>
#include <numbers>

namespace ppstap {

std::uint64_t Rng::next_u64() {
  std::uint64_t z = (state_ += kGamma);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  // 53 random bits into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::normal() {
  if (have_cached_) {
    have_cached_ = false;
    return cached_;
  }
  // Box–Muller; u1 is kept away from 0 so log() is finite.
  double u1 = uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_ = r * std::sin(theta);
  have_cached_ = true;
  return r * std::cos(theta);
}

cdouble Rng::cnormal() {
  // Each quadrature has variance 1/2 so E|z|^2 = 1.
  const double s = std::numbers::sqrt2 / 2.0;
  return {s * normal(), s * normal()};
}

Rng Rng::fork(std::uint64_t salt) const {
  // Mix the salt through one SplitMix64 step of a copy so forked streams do
  // not overlap for distinct salts.
  Rng child(state_ ^ (0x5851f42d4c957f2dULL * (salt + 1)));
  (void)child.next_u64();
  return child;
}

}  // namespace ppstap
