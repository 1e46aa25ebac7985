#include "synth/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numbers>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "dsp/fft.hpp"
#include "dsp/waveform.hpp"
#include "synth/steering.hpp"

namespace ppstap::synth {

namespace {

// The chirp spread gathers this many adjacent pulses of one channel per
// range cell: 8 cfloats, one 64-byte cache line.
constexpr index_t kPulseBlock = 8;

// Worker w's share of [0, total) when `workers` split it evenly.
std::pair<index_t, index_t> share(index_t w, index_t workers, index_t total) {
  const index_t base = total / workers;
  const index_t rem = total % workers;
  const index_t begin = w * base + std::min(w, rem);
  return {begin, begin + base + (w < rem ? 1 : 0)};
}

}  // namespace

struct ScenarioGenerator::Scratch {
  std::vector<cfloat> amp;  // one range cell's clutter (C) or jammer (N) draws
  std::vector<float> acc_re;
  std::vector<float> acc_im;
  std::vector<cfloat> cols;  // kPulseBlock range columns, K samples each
};

struct ScenarioGenerator::Chirp {
  dsp::FftPlan<float> fwd;
  dsp::FftPlan<float> inv;
  std::vector<cfloat> replica_spec;  // K-point FFT of the zero-padded replica

  Chirp(index_t k, const std::vector<cfloat>& replica)
      : fwd(k, dsp::FftDirection::kForward),
        inv(k, dsp::FftDirection::kInverse),
        replica_spec(static_cast<size_t>(k), cfloat{}) {
    std::copy(replica.begin(), replica.end(), replica_spec.begin());
    fwd.execute(replica_spec);
  }
};

ScenarioGenerator::ScenarioGenerator(ScenarioParams params)
    : params_(std::move(params)) {
  const auto& p = params_;
  PPSTAP_REQUIRE(p.num_range >= 1 && p.num_channels >= 1 && p.num_pulses >= 1,
                 "scenario dimensions must be positive");
  PPSTAP_REQUIRE(p.chirp_length <= p.num_range,
                 "chirp cannot exceed the range window");
  for (const auto& t : p.targets)
    PPSTAP_REQUIRE(t.range_cell >= 0 && t.range_cell < p.num_range,
                   "target range cell out of bounds");

  if (p.chirp_length > 0) {
    replica_ = dsp::lfm_chirp(p.chirp_length);
    chirp_ = std::make_shared<const Chirp>(p.num_range, replica_);
  }

  const index_t samples = p.num_range * p.num_channels * p.num_pulses;
  const auto hw = static_cast<index_t>(std::thread::hardware_concurrency());
  workers_ = std::clamp(samples / kMinSamplesPerWorker, index_t{1},
                        std::max(hw, index_t{1}));

  // Fixed clutter geometry: patches evenly spaced in sin(azimuth) across the
  // ridge, each with a spatial and a temporal signature tied by the slope.
  const index_t c = p.clutter.num_patches;
  if (c > 0) {
    const double half = p.clutter.azimuth_span_rad / 2.0;
    for (index_t i = 0; i < c; ++i) {
      const double frac =
          c == 1 ? 0.5
                 : static_cast<double>(i) / static_cast<double>(c - 1);
      const double az = -half + 2.0 * half * frac;
      const double f = 0.5 * p.clutter.doppler_slope * std::sin(az);
      const auto a = spatial_steering(p.num_channels, az);
      patch_spatial_.insert(patch_spatial_.end(), a.begin(), a.end());
      for (const cfloat d : temporal_steering(p.num_pulses, f)) {
        patch_temporal_re_.push_back(d.real());
        patch_temporal_im_.push_back(d.imag());
      }
      patch_azimuth_.push_back(az);
    }
    const double cnr_power =
        p.noise_power * std::pow(10.0, p.clutter.cnr_db / 10.0);
    patch_sigma_ = std::sqrt(cnr_power / static_cast<double>(c));
  }
  for (const auto& jam : p.jammers) {
    const auto a = spatial_steering(p.num_channels, jam.azimuth_rad);
    jammer_spatial_.insert(jammer_spatial_.end(), a.begin(), a.end());
  }
  for (const auto& t : p.targets) {
    const auto a = spatial_steering(p.num_channels, t.azimuth_rad);
    const auto d = temporal_steering(p.num_pulses, t.doppler_norm);
    target_spatial_.insert(target_spatial_.end(), a.begin(), a.end());
    target_temporal_.insert(target_temporal_.end(), d.begin(), d.end());
  }
}

double ScenarioGenerator::transmit_gain(index_t cpi_index,
                                        double azimuth_rad) const {
  if (params_.transmit_azimuths.empty()) return 1.0;
  const double center = params_.transmit_azimuths[static_cast<size_t>(
      cpi_index % static_cast<index_t>(params_.transmit_azimuths.size()))];
  const double delta = azimuth_rad - center;
  const double half = params_.transmit_beam_width_rad / 2.0;
  constexpr double kSidelobeFloor = 0.01;  // -40 dB in amplitude
  if (std::abs(delta) >= half) return kSidelobeFloor;
  const double g =
      std::cos(std::numbers::pi / 2.0 * delta / half);
  return std::max(g * g, kSidelobeFloor);
}

void ScenarioGenerator::add_clutter(cube::CpiCube& cpi,
                                    const std::vector<double>& scale,
                                    const Rng& stream, index_t k0,
                                    index_t k1, Scratch& s) const {
  const auto& p = params_;
  const index_t c = static_cast<index_t>(patch_azimuth_.size());
  if (c == 0) return;
  const index_t nj = p.num_channels;
  const index_t np = p.num_pulses;
  Rng rng = stream;
  rng.discard(static_cast<std::uint64_t>(2 * k0 * c));

  std::vector<cfloat>& g = s.amp;
  for (index_t k = k0; k < k1; ++k) {
    for (index_t pc = 0; pc < c; ++pc) {
      const cdouble gamma = rng.cnormal() * scale[static_cast<size_t>(pc)];
      g[static_cast<size_t>(pc)] = cfloat(static_cast<float>(gamma.real()),
                                          static_cast<float>(gamma.imag()));
    }
    for (index_t j = 0; j < nj; ++j) {
      float* ar = s.acc_re.data();
      float* ai = s.acc_im.data();
      std::fill(ar, ar + np, 0.0f);
      std::fill(ai, ai + np, 0.0f);
      for (index_t pc = 0; pc < c; ++pc) {
        const cfloat gp = g[static_cast<size_t>(pc)];
        const cfloat a = patch_spatial_[static_cast<size_t>(pc * nj + j)];
        const float ga_re = gp.real() * a.real() - gp.imag() * a.imag();
        const float ga_im = gp.real() * a.imag() + gp.imag() * a.real();
        const float* dr = patch_temporal_re_.data() + pc * np;
        const float* di = patch_temporal_im_.data() + pc * np;
        for (index_t n = 0; n < np; ++n) {
          ar[n] += ga_re * dr[n] - ga_im * di[n];
          ai[n] += ga_re * di[n] + ga_im * dr[n];
        }
      }
      auto line = cpi.line(k, j);
      for (index_t n = 0; n < np; ++n)
        line[static_cast<size_t>(n)] = cfloat(ar[n], ai[n]);
    }
  }
}

void ScenarioGenerator::add_targets(cube::CpiCube& cpi,
                                    const std::vector<float>& amp, index_t k0,
                                    index_t k1) const {
  const auto& p = params_;
  const index_t nj = p.num_channels;
  const index_t np = p.num_pulses;
  for (size_t t = 0; t < p.targets.size(); ++t) {
    const index_t cell = p.targets[t].range_cell;
    if (cell < k0 || cell >= k1) continue;
    const cfloat* a = target_spatial_.data() + t * static_cast<size_t>(nj);
    const cfloat* d = target_temporal_.data() + t * static_cast<size_t>(np);
    for (index_t j = 0; j < nj; ++j) {
      const cfloat aj = amp[t] * a[j];
      auto line = cpi.line(cell, j);
      for (index_t n = 0; n < np; ++n)
        line[static_cast<size_t>(n)] += aj * d[n];
    }
  }
}

void ScenarioGenerator::spread_with_chirp(cube::CpiCube& cpi, index_t u0,
                                          index_t u1, Scratch& s) const {
  // Circular convolution along range per (channel, pulse): consistent with
  // the K-point-FFT pulse compression the pipeline performs (paper §5.4).
  // Unit u covers channel u / blocks and the kPulseBlock pulses from
  // n0 = (u % blocks) * kPulseBlock; their range columns are gathered side
  // by side, K samples each, transformed and scattered back.
  const auto& p = params_;
  const index_t nk = p.num_range;
  const index_t np = p.num_pulses;
  const index_t blocks = (np + kPulseBlock - 1) / kPulseBlock;
  const auto& spec = chirp_->replica_spec;
  std::vector<cfloat>& cols = s.cols;
  for (index_t u = u0; u < u1; ++u) {
    const index_t j = u / blocks;
    const index_t n0 = (u % blocks) * kPulseBlock;
    const index_t w = std::min(kPulseBlock, np - n0);
    const std::span<cfloat> batch(cols.data(), static_cast<size_t>(w * nk));
    for (index_t k = 0; k < nk; ++k) {
      const cfloat* src = &cpi.at(k, j, n0);
      for (index_t b = 0; b < w; ++b)
        cols[static_cast<size_t>(b * nk + k)] = src[b];
    }
    chirp_->fwd.execute_batch(batch, w);
    for (index_t b = 0; b < w; ++b)
      for (index_t k = 0; k < nk; ++k)
        cols[static_cast<size_t>(b * nk + k)] *= spec[static_cast<size_t>(k)];
    chirp_->inv.execute_batch(batch, w);
    for (index_t k = 0; k < nk; ++k) {
      cfloat* dst = &cpi.at(k, j, n0);
      for (index_t b = 0; b < w; ++b)
        dst[b] = cols[static_cast<size_t>(b * nk + k)];
    }
  }
}

void ScenarioGenerator::add_jammers(cube::CpiCube& cpi, const Rng& stream,
                                    index_t k0, index_t k1, Scratch& s) const {
  const auto& p = params_;
  const index_t nk = p.num_range;
  const index_t nj = p.num_channels;
  const index_t np = p.num_pulses;
  const index_t c = static_cast<index_t>(patch_azimuth_.size());
  std::vector<cfloat>& g = s.amp;
  for (size_t q = 0; q < p.jammers.size(); ++q) {
    const auto& jam = p.jammers[q];
    // Spatially coherent, temporally white: one fresh complex amplitude
    // per (range cell, pulse) applied across the array through the
    // jammer's steering vector. Jammers radiate continuously, so no
    // transmit-beam gain applies.
    const double sigma =
        std::sqrt(p.noise_power) * std::pow(10.0, jam.jnr_db / 20.0);
    const cfloat* a = jammer_spatial_.data() + q * static_cast<size_t>(nj);
    Rng rng = stream;
    rng.discard(static_cast<std::uint64_t>(
        2 * (nk * c + static_cast<index_t>(q) * nk * np + k0 * np)));
    for (index_t k = k0; k < k1; ++k) {
      for (index_t n = 0; n < np; ++n) {
        const cdouble z = rng.cnormal() * sigma;
        g[static_cast<size_t>(n)] = cfloat(static_cast<float>(z.real()),
                                           static_cast<float>(z.imag()));
      }
      for (index_t j = 0; j < nj; ++j) {
        auto line = cpi.line(k, j);
        for (index_t n = 0; n < np; ++n)
          line[static_cast<size_t>(n)] += g[static_cast<size_t>(n)] * a[j];
      }
    }
  }
}

void ScenarioGenerator::add_noise(cube::CpiCube& cpi, const Rng& stream,
                                  index_t k0, index_t k1) const {
  const auto& p = params_;
  const double sigma = std::sqrt(p.noise_power);
  const index_t row = p.num_channels * p.num_pulses;
  const index_t c = static_cast<index_t>(patch_azimuth_.size());
  const auto q = static_cast<index_t>(p.jammers.size());
  Rng rng = stream;
  rng.discard(static_cast<std::uint64_t>(
      2 * (p.num_range * c + q * p.num_range * p.num_pulses + k0 * row)));
  cfloat* data = cpi.data();
  for (index_t i = k0 * row; i < k1 * row; ++i) {
    const cdouble z = rng.cnormal() * sigma;
    data[i] += cfloat(static_cast<float>(z.real()),
                      static_cast<float>(z.imag()));
  }
}

cube::CpiCube ScenarioGenerator::generate(index_t cpi_index,
                                          index_t threads) const {
  PPSTAP_REQUIRE(threads >= 1, "need at least one generator thread");
  const auto& p = params_;
  cube::CpiCube cpi(p.num_range, p.num_channels, p.num_pulses);
  const Rng stream = Rng(p.seed).fork(static_cast<std::uint64_t>(cpi_index));
  std::vector<double> scale(patch_azimuth_.size());
  for (size_t pc = 0; pc < scale.size(); ++pc)
    scale[pc] = patch_sigma_ * transmit_gain(cpi_index, patch_azimuth_[pc]);
  std::vector<float> target_amp;
  for (const auto& t : p.targets)
    target_amp.push_back(static_cast<float>(
        std::sqrt(p.noise_power) * std::pow(10.0, t.snr_db / 20.0) *
        transmit_gain(cpi_index, t.azimuth_rad)));

  const index_t used = std::min(threads, p.num_range);
  const auto c = static_cast<index_t>(patch_azimuth_.size());
  std::vector<Scratch> scratch(static_cast<size_t>(used));
  for (auto& s : scratch) {
    s.amp.resize(static_cast<size_t>(std::max(c, p.num_pulses)));
    s.acc_re.resize(static_cast<size_t>(p.num_pulses));
    s.acc_im.resize(static_cast<size_t>(p.num_pulses));
    if (chirp_) s.cols.resize(static_cast<size_t>(kPulseBlock * p.num_range));
  }
  // Runs body(begin, end, scratch) for each worker's share of [0, total).
  const auto each_worker =
      [&](index_t total,
          const std::function<void(index_t, index_t, Scratch&)>& body) {
        parallel_for_blocks(used, used, [&](index_t w0, index_t w1) {
          for (index_t w = w0; w < w1; ++w) {
            const auto [begin, end] = share(w, used, total);
            body(begin, end, scratch[static_cast<size_t>(w)]);
          }
        });
      };

  // Clutter and targets pass through the transmit pulse; jammers do not
  // carry the waveform, and receiver noise is added after it.
  const auto scene = [&](index_t k0, index_t k1, Scratch& s) {
    add_clutter(cpi, scale, stream, k0, k1, s);
    add_targets(cpi, target_amp, k0, k1);
  };
  const auto interference = [&](index_t k0, index_t k1, Scratch& s) {
    add_jammers(cpi, stream, k0, k1, s);
    add_noise(cpi, stream, k0, k1);
  };
  if (!chirp_) {
    each_worker(p.num_range, [&](index_t k0, index_t k1, Scratch& s) {
      scene(k0, k1, s);
      interference(k0, k1, s);
    });
    return cpi;
  }
  each_worker(p.num_range, scene);
  const index_t blocks = (p.num_pulses + kPulseBlock - 1) / kPulseBlock;
  each_worker(p.num_channels * blocks,
              [&](index_t u0, index_t u1, Scratch& s) {
                spread_with_chirp(cpi, u0, u1, s);
              });
  each_worker(p.num_range, interference);
  return cpi;
}

}  // namespace ppstap::synth
