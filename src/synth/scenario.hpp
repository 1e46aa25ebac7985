// Synthetic radar scenes standing in for live RTMCARM CPI data.
//
// The physics: a side-looking airborne radar sees ground clutter whose
// Doppler frequency is proportional to sin(azimuth) — the classic clutter
// "ridge" in the angle-Doppler plane. STAP's whole purpose is to null that
// ridge while preserving gain on targets displaced from it. We synthesize
// the ridge as a sum of independent clutter patches, add thermal noise and
// point targets, and (optionally) convolve the scene with the transmit
// chirp along range so pulse compression has real work to do.
//
// Patch geometry is fixed across CPIs while patch amplitudes redraw each
// CPI: the clutter *statistics* are stationary (which the paper's
// train-on-previous-CPIs scheme requires) but realizations differ.
//
// Stream layout. CPI i draws from one SplitMix64 stream,
// Rng(seed).fork(i), and every complex sample costs exactly two draws
// (Rng::cnormal), so each sample has a fixed position in the stream. With
// K range cells, C clutter patches, Q jammers, J channels and N pulses:
//   clutter amplitude of patch pc at range k   draws 2(k·C + pc)
//   jammer q amplitude at (k, n)               draws 2(K·C + q·K·N + k·N + n)
//   noise at flat cube index i = (k·J + j)·N + n
//                                              draws 2(K·C + Q·K·N + i)
// A worker that owns range cells [k0, k1) jumps to its first sample with
// Rng::discard, so generate() splits the cube over threads and still
// returns the bytes a single in-order pass would.
//
// Bit-exactness. Each clutter sample is the sum over patches, in ascending
// patch order, of (g·a_j)·d_n in single precision, written out as separate
// float multiplies and adds. This library is built with -ffp-contract=off,
// so the compiler never fuses them into FMAs and the sum rounds exactly as
// std::complex<float> arithmetic does; the dispatched AVX2 axpy fuses and
// would round differently. The
// chirp spread runs the same K-point FFTs per (channel, pulse) column as
// before, just on a block of 8 adjacent columns at a time. Those FFTs use
// the kernels active at the time: scalar and AVX2 cubes differ in their
// last bits, as the FFTs themselves do. The replica spectrum is computed
// once, at construction, with the kernels active then.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "cube/cube.hpp"

namespace ppstap::synth {

/// A point target at a given range cell, normalized Doppler and azimuth.
struct Target {
  index_t range_cell = 0;
  double doppler_norm = 0.25;  ///< cycles per PRI in [-0.5, 0.5)
  double azimuth_rad = 0.0;
  double snr_db = 20.0;  ///< per-element, per-pulse SNR before any gain
};

/// A broadband noise jammer: spatially coherent (fixed azimuth), white
/// across pulses and range — it fills every Doppler bin at one angle, the
/// classic case where spatial-only nulling suffices (paper §1:
/// "interference").
struct Jammer {
  double azimuth_rad = 0.0;
  double jnr_db = 30.0;  ///< jammer-to-noise ratio per element sample
};

/// Ground clutter ridge model.
struct ClutterModel {
  index_t num_patches = 32;   ///< discrete azimuth patches across the ridge
  double cnr_db = 40.0;       ///< total clutter-to-noise ratio per sample
  double doppler_slope = 1.0; ///< beta: f = 0.5 * beta * sin(azimuth)
  double azimuth_span_rad = 3.14159265358979 * 2.0 / 3.0;  ///< +-60 degrees
};

struct ScenarioParams {
  index_t num_range = 512;     ///< K
  index_t num_channels = 16;   ///< J
  index_t num_pulses = 128;    ///< N
  double noise_power = 1.0;
  ClutterModel clutter;
  std::vector<Target> targets;
  std::vector<Jammer> jammers;
  index_t chirp_length = 32;   ///< transmit pulse extent in range cells;
                               ///< 0 disables waveform spreading
  /// Transmit beam cycling (paper §3: five 25-degree transmit beams,
  /// 20 degrees apart, revisited in turn): if non-empty, CPI i is
  /// illuminated by the beam centered at transmit_azimuths[i % size()]
  /// with a cos^2 mainlobe of transmit_beam_width_rad and a -40 dB
  /// sidelobe floor; clutter patches and targets are attenuated by the
  /// two-way transmit gain toward their azimuth. Empty = omnidirectional.
  std::vector<double> transmit_azimuths;
  double transmit_beam_width_rad = 25.0 * 3.14159265358979 / 180.0;
  std::uint64_t seed = 0x5741505354ULL;  // "STAPW"
};

/// Deterministic CPI stream generator: generate(i) always returns the same
/// cube for the same (params, i), so distributed consumers can re-derive
/// their partition of the input independently. The cube is the same for
/// any number of generator threads.
class ScenarioGenerator {
 public:
  explicit ScenarioGenerator(ScenarioParams params);

  const ScenarioParams& params() const { return params_; }

  /// The transmit replica used to spread the scene (empty if disabled).
  const std::vector<cfloat>& replica() const { return replica_; }

  /// Generate CPI number `cpi_index` as a K x J x N cube, pulses unit
  /// stride (the corner-turned layout of the paper's interface boards).
  /// Runs on workers() threads.
  cube::CpiCube generate(index_t cpi_index) const {
    return generate(cpi_index, workers_);
  }

  /// The same cube, generated on `threads` threads (>= 1).
  cube::CpiCube generate(index_t cpi_index, index_t threads) const;

  /// Threads generate() uses: one per kMinSamplesPerWorker cube samples,
  /// at most one per hardware thread, at least one.
  index_t workers() const { return workers_; }

  /// Cube samples below which another generator thread costs more to
  /// spawn than it saves.
  static constexpr index_t kMinSamplesPerWorker = index_t{1} << 16;

  /// Amplitude gain of the transmit beam active on CPI `cpi_index` toward
  /// `azimuth_rad` (1.0 when transmit cycling is disabled).
  double transmit_gain(index_t cpi_index, double azimuth_rad) const;

 private:
  ScenarioParams params_;
  std::vector<cfloat> replica_;
  struct Chirp;  // FFT plans + replica spectrum; hides dsp/fft.hpp
  std::shared_ptr<const Chirp> chirp_;  // null when chirp_length == 0
  index_t workers_ = 1;
  // Fixed patch geometry, C patches: spatial responses (C x J), temporal
  // responses split into real and imaginary planes (C x N each), azimuths.
  std::vector<cfloat> patch_spatial_;
  std::vector<float> patch_temporal_re_;
  std::vector<float> patch_temporal_im_;
  std::vector<double> patch_azimuth_;
  double patch_sigma_ = 0.0;
  // Fixed steering of the jammers (Q x J) and targets (T x J, T x N).
  std::vector<cfloat> jammer_spatial_;
  std::vector<cfloat> target_spatial_;
  std::vector<cfloat> target_temporal_;

  // One thread's buffers. generate() allocates them on the calling thread,
  // so the workers never touch the heap (see common/parallel.hpp).
  struct Scratch;

  // Each fills range cells [k0, k1) (the chirp spread: column units
  // [u0, u1) of (channel, 8-pulse block)) and reads `stream` through
  // discard, never advancing it.
  void add_clutter(cube::CpiCube& cpi, const std::vector<double>& scale,
                   const Rng& stream, index_t k0, index_t k1,
                   Scratch& s) const;
  void add_targets(cube::CpiCube& cpi, const std::vector<float>& amp,
                   index_t k0, index_t k1) const;
  void spread_with_chirp(cube::CpiCube& cpi, index_t u0, index_t u1,
                         Scratch& s) const;
  void add_jammers(cube::CpiCube& cpi, const Rng& stream, index_t k0,
                   index_t k1, Scratch& s) const;
  void add_noise(cube::CpiCube& cpi, const Rng& stream, index_t k0,
                 index_t k1) const;
};

}  // namespace ppstap::synth
