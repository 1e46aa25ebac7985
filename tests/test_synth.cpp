// Tests for the synthetic radar scene generator: steering vectors, clutter
// ridge statistics, target injection, determinism, waveform spreading, and
// byte equality of the threaded generator with the single-pass one.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <thread>

#include "dsp/fft.hpp"
#include "dsp/waveform.hpp"
#include "kernels/dispatch.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

namespace ppstap::synth {
namespace {

TEST(Steering, BroadsideIsAllOnes) {
  auto a = spatial_steering(8, 0.0);
  for (auto& v : a) EXPECT_NEAR(std::abs(v - cfloat(1, 0)), 0.0, 1e-6);
}

TEST(Steering, PhaseProgressionMatchesUlaModel) {
  const double theta = 0.3;
  auto a = spatial_steering(6, theta);
  const double step = std::numbers::pi * std::sin(theta);
  for (index_t j = 0; j < 6; ++j) {
    const double ang = step * static_cast<double>(j);
    EXPECT_NEAR(a[static_cast<size_t>(j)].real(), std::cos(ang), 1e-6);
    EXPECT_NEAR(a[static_cast<size_t>(j)].imag(), std::sin(ang), 1e-6);
  }
}

TEST(Steering, UnitModulusElements) {
  auto a = spatial_steering(16, -0.7);
  for (auto& v : a) EXPECT_NEAR(std::abs(v), 1.0, 1e-6);
  auto d = temporal_steering(128, 0.37);
  for (auto& v : d) EXPECT_NEAR(std::abs(v), 1.0, 1e-6);
}

TEST(Steering, TemporalFrequency) {
  const double f = 0.25;
  auto d = temporal_steering(8, f);
  // Phase advances by 2*pi*f per pulse: at f = 1/4 the sequence cycles
  // through 1, j, -1, -j.
  EXPECT_NEAR(std::abs(d[0] - cfloat(1, 0)), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(d[1] - cfloat(0, 1)), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(d[2] - cfloat(-1, 0)), 0.0, 1e-6);
  EXPECT_NEAR(std::abs(d[3] - cfloat(0, -1)), 0.0, 1e-6);
}

TEST(Steering, BeamMatrixColumnsAreSteeringVectors) {
  const index_t j = 8, m = 4;
  auto s = steering_matrix(j, m, 0.1, 0.4);
  for (index_t b = 0; b < m; ++b) {
    auto col = spatial_steering(j, beam_azimuth(m, b, 0.1, 0.4));
    for (index_t r = 0; r < j; ++r)
      EXPECT_NEAR(std::abs(s(r, b) - col[static_cast<size_t>(r)]), 0.0, 1e-6);
  }
}

TEST(Steering, BeamAzimuthsSpanTheBeamWidth) {
  EXPECT_NEAR(beam_azimuth(6, 0, 0.0, 0.5), -0.25, 1e-9);
  EXPECT_NEAR(beam_azimuth(6, 5, 0.0, 0.5), 0.25, 1e-9);
  EXPECT_NEAR(beam_azimuth(1, 0, 0.2, 0.5), 0.2, 1e-9);
}

ScenarioParams small_scenario() {
  ScenarioParams sp;
  sp.num_range = 32;
  sp.num_channels = 4;
  sp.num_pulses = 16;
  sp.clutter.num_patches = 8;
  sp.clutter.cnr_db = 30.0;
  sp.chirp_length = 0;
  sp.targets.clear();
  return sp;
}

TEST(Scenario, DeterministicAcrossCalls) {
  ScenarioGenerator gen(small_scenario());
  auto a = gen.generate(3);
  auto b = gen.generate(3);
  for (index_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.data()[i], b.data()[i]);
}

TEST(Scenario, DifferentCpisDiffer) {
  ScenarioGenerator gen(small_scenario());
  auto a = gen.generate(0);
  auto b = gen.generate(1);
  double diff = 0;
  for (index_t i = 0; i < a.size(); ++i)
    diff += std::abs(a.data()[i] - b.data()[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(Scenario, NoiseOnlyPowerMatchesNoiseFloor) {
  auto sp = small_scenario();
  sp.clutter.num_patches = 0;
  sp.noise_power = 2.0;
  ScenarioGenerator gen(sp);
  auto c = gen.generate(0);
  double power = 0;
  for (index_t i = 0; i < c.size(); ++i) power += std::norm(c.data()[i]);
  power /= static_cast<double>(c.size());
  EXPECT_NEAR(power, 2.0, 0.15);
}

TEST(Scenario, ClutterPowerMatchesCnr) {
  auto sp = small_scenario();
  sp.clutter.cnr_db = 20.0;  // clutter power 100x noise
  sp.noise_power = 1.0;
  ScenarioGenerator gen(sp);
  auto c = gen.generate(0);
  double power = 0;
  for (index_t i = 0; i < c.size(); ++i) power += std::norm(c.data()[i]);
  power /= static_cast<double>(c.size());
  EXPECT_NEAR(power, 101.0, 15.0);  // clutter + noise
}

TEST(Scenario, ClutterRidgeConcentratesDopplerEnergy) {
  // Per-patch Doppler is tied to azimuth; a single patch at broadside must
  // put all its energy at zero Doppler.
  auto sp = small_scenario();
  sp.clutter.num_patches = 1;
  sp.clutter.azimuth_span_rad = 0.0;  // single patch at azimuth 0
  sp.clutter.cnr_db = 40.0;
  sp.noise_power = 1e-12;  // negligible
  ScenarioGenerator gen(sp);
  auto c = gen.generate(0);
  // DFT over pulses at one (range, channel): energy should be at DC.
  double dc = 0, rest = 0;
  for (index_t n_bin = 0; n_bin < sp.num_pulses; ++n_bin) {
    cdouble acc{};
    for (index_t t = 0; t < sp.num_pulses; ++t) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(n_bin * t) /
                         static_cast<double>(sp.num_pulses);
      const cfloat v = c.at(5, 2, t);
      acc += cdouble(v.real(), v.imag()) * cdouble(std::cos(ang),
                                                   std::sin(ang));
    }
    if (n_bin == 0)
      dc = std::norm(acc);
    else
      rest = std::max(rest, std::norm(acc));
  }
  EXPECT_GT(dc, 100.0 * rest);
}

TEST(Scenario, TargetAppearsAtItsRangeCell) {
  auto sp = small_scenario();
  sp.clutter.num_patches = 0;
  sp.noise_power = 1e-12;
  sp.targets.push_back(Target{10, 0.25, 0.0, 20.0});
  ScenarioGenerator gen(sp);
  auto c = gen.generate(0);
  // All signal energy sits in range cell 10 (SNR is relative to the tiny
  // noise floor, so compare cells against each other).
  double target_e = 0, other_max = 0;
  for (index_t k = 0; k < sp.num_range; ++k) {
    double e = 0;
    for (index_t j = 0; j < sp.num_channels; ++j)
      for (index_t n = 0; n < sp.num_pulses; ++n)
        e += std::norm(c.at(k, j, n));
    if (k == 10)
      target_e = e;
    else
      other_max = std::max(other_max, e);
  }
  EXPECT_GT(target_e, 50.0 * other_max);
}

TEST(Scenario, ChirpSpreadsTargetAcrossRange) {
  auto sp = small_scenario();
  sp.clutter.num_patches = 0;
  sp.noise_power = 1e-12;
  sp.chirp_length = 8;
  sp.targets.push_back(Target{10, 0.25, 0.0, 20.0});
  ScenarioGenerator gen(sp);
  auto c = gen.generate(0);
  // Energy appears in the L cells starting at the target range (circular).
  double peak = 0;
  for (index_t k = 0; k < sp.num_range; ++k) {
    double e = 0;
    for (index_t n = 0; n < sp.num_pulses; ++n) e += std::norm(c.at(k, 0, n));
    peak = std::max(peak, e);
  }
  int cells_with_energy = 0;
  for (index_t k = 0; k < sp.num_range; ++k) {
    double e = 0;
    for (index_t n = 0; n < sp.num_pulses; ++n) e += std::norm(c.at(k, 0, n));
    if (e > 1e-3 * peak) ++cells_with_energy;
  }
  EXPECT_GE(cells_with_energy, 8);
}

TEST(Scenario, ChirpPreservesTotalEnergy) {
  auto spread = small_scenario();
  spread.clutter.num_patches = 0;
  spread.noise_power = 1e-12;
  spread.targets.push_back(Target{10, 0.25, 0.0, 20.0});
  auto impulse = spread;
  spread.chirp_length = 8;
  impulse.chirp_length = 0;
  auto cs = ScenarioGenerator(spread).generate(0);
  auto ci = ScenarioGenerator(impulse).generate(0);
  double es = 0, ei = 0;
  for (index_t i = 0; i < cs.size(); ++i) es += std::norm(cs.data()[i]);
  for (index_t i = 0; i < ci.size(); ++i) ei += std::norm(ci.data()[i]);
  // Unit-energy chirp: circular convolution preserves energy up to the
  // single-precision FFT round-trip.
  EXPECT_NEAR(es / ei, 1.0, 1e-2);
}

TEST(Scenario, InvalidTargetRangeThrows) {
  auto sp = small_scenario();
  sp.targets.push_back(Target{999, 0.1, 0.0, 10.0});
  EXPECT_THROW(ScenarioGenerator{sp}, Error);
}

TEST(Scenario, ChirpLongerThanRangeThrows) {
  auto sp = small_scenario();
  sp.chirp_length = sp.num_range + 1;
  EXPECT_THROW(ScenarioGenerator{sp}, Error);
}

// --- byte equality with the single-pass generator ---------------------------
//
// ReferenceGenerator is the scene generator as it was before generate() was
// split over range blocks and threads: one stream consumed in order, the
// clutter summed through std::complex<float>, one strided range column per
// chirp FFT. It is kept verbatim as the oracle for the bytes generate() must
// reproduce at every thread count.
class ReferenceGenerator {
 public:
  explicit ReferenceGenerator(ScenarioParams params);
  cube::CpiCube generate(index_t cpi_index) const;
  double transmit_gain(index_t cpi_index, double azimuth_rad) const;

 private:
  ScenarioParams params_;
  std::vector<cfloat> replica_;
  std::vector<std::vector<cfloat>> patch_spatial_;
  std::vector<std::vector<cfloat>> patch_temporal_;
  std::vector<double> patch_doppler_;
  double patch_sigma_ = 0.0;

  std::vector<double> patch_azimuth_;

  void add_clutter(cube::CpiCube& cpi, index_t cpi_index, Rng& rng) const;
  void add_jammers(cube::CpiCube& cpi, Rng& rng) const;
  void add_noise(cube::CpiCube& cpi, Rng& rng) const;
  void add_targets(cube::CpiCube& cpi, index_t cpi_index) const;
  void spread_with_chirp(cube::CpiCube& cpi) const;
};

ReferenceGenerator::ReferenceGenerator(ScenarioParams params)
    : params_(std::move(params)) {
  const auto& p = params_;
  PPSTAP_REQUIRE(p.num_range >= 1 && p.num_channels >= 1 && p.num_pulses >= 1,
                 "scenario dimensions must be positive");
  PPSTAP_REQUIRE(p.chirp_length <= p.num_range,
                 "chirp cannot exceed the range window");
  for (const auto& t : p.targets)
    PPSTAP_REQUIRE(t.range_cell >= 0 && t.range_cell < p.num_range,
                   "target range cell out of bounds");

  if (p.chirp_length > 0) replica_ = dsp::lfm_chirp(p.chirp_length);

  // Fixed clutter geometry: patches evenly spaced in sin(azimuth) across the
  // ridge, each with a spatial and a temporal signature tied by the slope.
  const index_t c = p.clutter.num_patches;
  if (c > 0) {
    patch_spatial_.reserve(static_cast<size_t>(c));
    patch_temporal_.reserve(static_cast<size_t>(c));
    patch_doppler_.reserve(static_cast<size_t>(c));
    const double half = p.clutter.azimuth_span_rad / 2.0;
    for (index_t i = 0; i < c; ++i) {
      const double frac =
          c == 1 ? 0.5
                 : static_cast<double>(i) / static_cast<double>(c - 1);
      const double az = -half + 2.0 * half * frac;
      const double f = 0.5 * p.clutter.doppler_slope * std::sin(az);
      patch_spatial_.push_back(spatial_steering(p.num_channels, az));
      patch_temporal_.push_back(temporal_steering(p.num_pulses, f));
      patch_doppler_.push_back(f);
      patch_azimuth_.push_back(az);
    }
    const double cnr_power =
        p.noise_power * std::pow(10.0, p.clutter.cnr_db / 10.0);
    patch_sigma_ = std::sqrt(cnr_power / static_cast<double>(c));
  }
}

double ReferenceGenerator::transmit_gain(index_t cpi_index,
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

void ReferenceGenerator::add_clutter(cube::CpiCube& cpi, index_t cpi_index,
                                    Rng& rng) const {
  const auto& p = params_;
  const index_t c = static_cast<index_t>(patch_spatial_.size());
  for (index_t k = 0; k < p.num_range; ++k) {
    for (index_t pc = 0; pc < c; ++pc) {
      const double tx = transmit_gain(
          cpi_index, patch_azimuth_[static_cast<size_t>(pc)]);
      const cdouble gamma = rng.cnormal() * (patch_sigma_ * tx);
      const cfloat g(static_cast<float>(gamma.real()),
                     static_cast<float>(gamma.imag()));
      const auto& a = patch_spatial_[static_cast<size_t>(pc)];
      const auto& d = patch_temporal_[static_cast<size_t>(pc)];
      for (index_t j = 0; j < p.num_channels; ++j) {
        const cfloat ga = g * a[static_cast<size_t>(j)];
        auto line = cpi.line(k, j);
        for (index_t n = 0; n < p.num_pulses; ++n)
          line[static_cast<size_t>(n)] += ga * d[static_cast<size_t>(n)];
      }
    }
  }
}

void ReferenceGenerator::add_jammers(cube::CpiCube& cpi, Rng& rng) const {
  const auto& p = params_;
  for (const auto& jam : p.jammers) {
    // Spatially coherent, temporally white: one fresh complex amplitude
    // per (range cell, pulse) applied across the array through the
    // jammer's steering vector. Jammers radiate continuously, so no
    // transmit-beam gain applies.
    const double sigma =
        std::sqrt(p.noise_power) * std::pow(10.0, jam.jnr_db / 20.0);
    const auto a = spatial_steering(p.num_channels, jam.azimuth_rad);
    for (index_t k = 0; k < p.num_range; ++k)
      for (index_t n = 0; n < p.num_pulses; ++n) {
        const cdouble z = rng.cnormal() * sigma;
        const cfloat g(static_cast<float>(z.real()),
                       static_cast<float>(z.imag()));
        for (index_t j = 0; j < p.num_channels; ++j)
          cpi.at(k, j, n) += g * a[static_cast<size_t>(j)];
      }
  }
}

void ReferenceGenerator::add_noise(cube::CpiCube& cpi, Rng& rng) const {
  const double sigma = std::sqrt(params_.noise_power);
  cfloat* data = cpi.data();
  const index_t total = cpi.size();
  for (index_t i = 0; i < total; ++i) {
    const cdouble z = rng.cnormal() * sigma;
    data[i] += cfloat(static_cast<float>(z.real()),
                      static_cast<float>(z.imag()));
  }
}

void ReferenceGenerator::add_targets(cube::CpiCube& cpi,
                                    index_t cpi_index) const {
  const auto& p = params_;
  for (const auto& t : p.targets) {
    const double amp = std::sqrt(p.noise_power) *
                       std::pow(10.0, t.snr_db / 20.0) *
                       transmit_gain(cpi_index, t.azimuth_rad);
    const auto a = spatial_steering(p.num_channels, t.azimuth_rad);
    const auto d = temporal_steering(p.num_pulses, t.doppler_norm);
    for (index_t j = 0; j < p.num_channels; ++j) {
      const cfloat aj = static_cast<float>(amp) * a[static_cast<size_t>(j)];
      auto line = cpi.line(t.range_cell, j);
      for (index_t n = 0; n < p.num_pulses; ++n)
        line[static_cast<size_t>(n)] += aj * d[static_cast<size_t>(n)];
    }
  }
}

void ReferenceGenerator::spread_with_chirp(cube::CpiCube& cpi) const {
  const auto& p = params_;
  if (replica_.empty()) return;
  // Circular convolution along range per (channel, pulse): consistent with
  // the K-point-FFT pulse compression the pipeline performs (paper §5.4).
  const index_t k_fft = p.num_range;
  dsp::FftPlan<float> fwd(k_fft, dsp::FftDirection::kForward);
  dsp::FftPlan<float> inv(k_fft, dsp::FftDirection::kInverse);
  std::vector<cfloat> replica_spec(static_cast<size_t>(k_fft), cfloat{});
  std::copy(replica_.begin(), replica_.end(), replica_spec.begin());
  fwd.execute(replica_spec);

  std::vector<cfloat> column(static_cast<size_t>(k_fft));
  for (index_t j = 0; j < p.num_channels; ++j)
    for (index_t n = 0; n < p.num_pulses; ++n) {
      for (index_t k = 0; k < p.num_range; ++k)
        column[static_cast<size_t>(k)] = cpi.at(k, j, n);
      fwd.execute(column);
      for (index_t k = 0; k < k_fft; ++k)
        column[static_cast<size_t>(k)] *= replica_spec[static_cast<size_t>(k)];
      inv.execute(column);
      for (index_t k = 0; k < p.num_range; ++k)
        cpi.at(k, j, n) = column[static_cast<size_t>(k)];
    }
}

cube::CpiCube ReferenceGenerator::generate(index_t cpi_index) const {
  const auto& p = params_;
  cube::CpiCube cpi(p.num_range, p.num_channels, p.num_pulses);
  Rng rng = Rng(p.seed).fork(static_cast<std::uint64_t>(cpi_index));

  add_clutter(cpi, cpi_index, rng);
  add_targets(cpi, cpi_index);
  spread_with_chirp(cpi);  // clutter+targets pass through the transmit pulse
  add_jammers(cpi, rng);   // jammers do not carry the transmit waveform
  add_noise(cpi, rng);     // receiver noise is added after the waveform
  return cpi;
}

struct SimdGuard {
  kernels::SimdLevel saved = kernels::simd_info().level;
  ~SimdGuard() { kernels::force_simd_level(saved); }
};

std::vector<kernels::SimdLevel> simd_levels() {
  std::vector<kernels::SimdLevel> levels{kernels::SimdLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(kernels::SimdLevel::kAvx2);
  return levels;
}

bool same_bytes(const cube::CpiCube& a, const cube::CpiCube& b) {
  return a.extents() == b.extents() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(cfloat)) == 0;
}

// Generates CPIs `cpis` of `sp` at each SIMD level and each thread count and
// asserts the cubes equal the reference byte for byte. Both generators are
// built under the level they run at (the chirp spectrum is computed at
// construction).
void expect_reference_bytes(const ScenarioParams& sp,
                            std::initializer_list<index_t> threads,
                            std::initializer_list<index_t> cpis = {0, 3}) {
  SimdGuard guard;
  for (const auto level : simd_levels()) {
    kernels::force_simd_level(level);
    const ReferenceGenerator ref(sp);
    const ScenarioGenerator gen(sp);
    for (const index_t cpi : cpis) {
      const auto expected = ref.generate(cpi);
      EXPECT_TRUE(same_bytes(gen.generate(cpi), expected))
          << kernels::simd_info().level_name << " cpi " << cpi
          << " default threads " << gen.workers();
      for (const index_t t : threads)
        EXPECT_TRUE(same_bytes(gen.generate(cpi, t), expected))
            << kernels::simd_info().level_name << " cpi " << cpi << " threads "
            << t;
    }
  }
}

TEST(ScenarioBytes, PaperShape) {
  ScenarioParams sp;  // K=512, J=16, N=128, 32 patches, 32-cell chirp
  sp.targets.push_back(Target{170, 38.0 / 128.0, 0.0, 10.0});
  expect_reference_bytes(sp, {1, 2, 4}, {1});
}

TEST(ScenarioBytes, HostShape) {
  ScenarioParams sp;
  sp.num_range = 128;
  sp.num_channels = 8;
  sp.num_pulses = 32;
  sp.clutter.num_patches = 12;
  sp.chirp_length = 16;
  sp.targets.push_back(Target{45, 10.0 / 32.0, 0.0, 12.0});
  expect_reference_bytes(sp, {1, 2, 3, 4, 7});
}

TEST(ScenarioBytes, OddShapeWithJammerAndTransmitCycling) {
  // K = 200 takes the Bluestein FFT, N = 37 leaves a 5-pulse last block.
  ScenarioParams sp;
  sp.num_range = 200;
  sp.num_channels = 5;
  sp.num_pulses = 37;
  sp.clutter.num_patches = 9;
  sp.chirp_length = 13;
  sp.jammers.push_back(Jammer{0.4, 25.0});
  sp.jammers.push_back(Jammer{-0.9, 18.0});
  sp.transmit_azimuths = {-0.35, 0.0, 0.35};
  sp.targets.push_back(Target{199, -0.2, 0.35, 15.0});
  sp.targets.push_back(Target{0, 0.1, -0.35, 15.0});
  expect_reference_bytes(sp, {1, 2, 3, 4, 7}, {0, 1, 2, 5});
}

TEST(ScenarioBytes, NoChirp) {
  auto sp = small_scenario();
  sp.jammers.push_back(Jammer{0.2, 20.0});
  sp.targets.push_back(Target{10, 0.25, 0.0, 20.0});
  expect_reference_bytes(sp, {1, 2, 3, 4, 7});
}

TEST(ScenarioBytes, NoClutterPatches) {
  auto sp = small_scenario();
  sp.clutter.num_patches = 0;
  sp.chirp_length = 8;
  sp.jammers.push_back(Jammer{-0.3, 20.0});
  expect_reference_bytes(sp, {1, 2, 3, 4, 7});
}

TEST(ScenarioBytes, FewerRangeCellsThanThreads) {
  auto sp = small_scenario();
  sp.num_range = 3;
  sp.chirp_length = 2;
  sp.jammers.push_back(Jammer{0.6, 20.0});
  sp.targets.push_back(Target{2, 0.25, 0.0, 20.0});
  expect_reference_bytes(sp, {1, 2, 3, 4, 7});
}

TEST(ScenarioBytes, WorkerCountFollowsCubeSize) {
  ScenarioParams small = small_scenario();  // 2048 samples
  EXPECT_EQ(ScenarioGenerator(small).workers(), 1);
  ScenarioParams paper;  // 2^20 samples
  const auto hw = static_cast<index_t>(std::thread::hardware_concurrency());
  EXPECT_EQ(ScenarioGenerator(paper).workers(),
            std::clamp(index_t{1} << 4, index_t{1}, std::max(hw, index_t{1})));
}

}  // namespace
}  // namespace ppstap::synth
