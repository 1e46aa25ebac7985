// Doppler filter processing (paper §5.1).
//
// For every range cell and channel, two overlapping windows of
// (N - stagger) pulses separated by `stagger` pulses are windowed,
// zero-padded to N, and FFT'd — the PRI-stagger technique. The output is
// the "staggered CPI": a K x 2J x N cube in which channels [0, J) carry the
// first window's Doppler spectra and channels [J, 2J) the second window's.
//
// The function operates on any range slab (the task is embarrassingly
// parallel along K, Fig. 5), so the sequential pipeline and each parallel
// Doppler node share the same kernel.
#pragma once

#include <memory>

#include "cube/cube.hpp"
#include "stap/params.hpp"

namespace ppstap::stap {

/// Doppler filtering state reusable across CPIs (FFT plan + window).
class DopplerFilter {
 public:
  explicit DopplerFilter(const StapParams& p);

  /// Filter range cells [k0, k0 + kl) of a raw cube (K x J x N, pulses
  /// unit stride) into a staggered slab (kl x 2J x N, Doppler bins unit
  /// stride). The rows are read in place, so a Doppler node filters its
  /// range slab straight out of the shared CPI. Row indices of `raw` are
  /// global range cells (range correction's gain depends on them); kl < 0
  /// means every row from k0 on.
  cube::CpiCube filter(const cube::CpiCube& raw, index_t k0 = 0,
                       index_t kl = -1) const;

  /// The range-correction amplitude gain applied to global range cell `k`
  /// (1.0 when correction is disabled).
  float range_gain(index_t k) const;

  /// ABFT invariant (PR 5): Parseval's theorem per FFT line. For every
  /// (range cell, channel, stagger window), the Doppler-domain energy
  /// sum |X[n]|^2 must equal N * sum |window * gain * x[i]|^2 (forward
  /// transforms are unscaled). Both sides accumulate in double, so `tol`
  /// (relative) only has to absorb the kernel's float rounding. Returns
  /// false as soon as any line deviates or holds a non-finite value.
  /// `stag` is filter(raw, k0, stag.extent(0)).
  bool parseval_check(const cube::CpiCube& raw, const cube::CpiCube& stag,
                      index_t k0, double tol) const;

 private:
  StapParams p_;
  std::vector<float> window_;
  struct PlanHolder;  // hides dsp::FftPlan to keep this header light
  std::shared_ptr<const PlanHolder> plan_;
};

}  // namespace ppstap::stap
