// End-to-end tests for the ABFT integrity layer (PR 5): each kernel
// invariant passes on clean output at Table-1 sizes and trips on an
// injected bit flip, and the pipeline's detect -> recompute-once ->
// escalate policy repairs transient corruption bit-exactly while
// converting persistent corruption into exactly one ledgered shed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <utility>
#include <vector>

#include "comm/fault.hpp"
#include "common/rng.hpp"
#include "core/integrity.hpp"
#include "core/pipeline.hpp"
#include "linalg/qr.hpp"
#include "linalg/serialize.hpp"
#include "stap/beamform.hpp"
#include "stap/cfar.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compression.hpp"
#include "stap/weights.hpp"
#include "synth/scenario.hpp"
#include "synth/steering.hpp"

namespace ppstap {
namespace {

using comm::FaultPlan;
using core::IntegrityConfig;
using core::flip_float_bit;
using stap::StapParams;
using stap::Task;

constexpr double kTol = 1e-4;

cube::CpiCube random_cube(index_t a, index_t b, index_t c,
                          std::uint64_t seed) {
  Rng rng(seed);
  cube::CpiCube cu(a, b, c);
  for (index_t i = 0; i < cu.size(); ++i) {
    const auto z = rng.cnormal();
    cu.data()[i] = cfloat(static_cast<float>(z.real()),
                          static_cast<float>(z.imag()));
  }
  return cu;
}

std::span<float> float_view(cube::CpiCube& cu) {
  return {reinterpret_cast<float*>(cu.data()),
          static_cast<size_t>(cu.size()) * 2};
}

// ---------------------------------------------------------------------------
// Unit: the seeded injector
// ---------------------------------------------------------------------------

TEST(FlipFloatBit, DeterministicAndSelfInverse) {
  std::vector<float> a(64, 1.0f), b(64, 1.0f);
  flip_float_bit(a, 30, 7);
  flip_float_bit(b, 30, 7);
  EXPECT_EQ(a, b);  // same salt, same victim
  int changed = 0;
  for (size_t i = 0; i < a.size(); ++i) changed += a[i] != 1.0f;
  EXPECT_EQ(changed, 1);  // exactly one element touched
  flip_float_bit(a, 30, 7);
  for (float v : a) EXPECT_EQ(v, 1.0f);  // xor flip is self-inverse
  std::span<float> empty;
  flip_float_bit(empty, 30, 7);  // no-op, must not crash
}

// ---------------------------------------------------------------------------
// Unit: kernel invariants at Table-1 sizes (paper defaults: K = 512,
// J = 16, N = 128, M = 6)
// ---------------------------------------------------------------------------

TEST(KernelInvariants, DopplerParsevalCleanAndFlipped) {
  StapParams p;  // Table-1 defaults
  p.validate();
  stap::DopplerFilter filter(p);
  const auto raw =
      random_cube(64, p.num_channels, p.num_pulses, /*seed=*/1);
  auto stag = filter.filter(raw, /*k_offset=*/0);
  EXPECT_TRUE(filter.parseval_check(raw, stag, 0, kTol));
  flip_float_bit(float_view(stag), 30, /*salt=*/11);
  EXPECT_FALSE(filter.parseval_check(raw, stag, 0, kTol));
}

TEST(KernelInvariants, EasyBeamformChecksumCleanAndFlipped) {
  StapParams p;
  p.validate();
  const index_t bins = 8;
  const auto data = random_cube(bins, p.num_range, p.num_channels, 2);
  stap::WeightSet w;
  for (index_t b = 0; b < bins; ++b) {
    w.bins.push_back(b);
    linalg::MatrixCF wm(p.num_channels, p.num_beams);
    Rng rng(100 + static_cast<std::uint64_t>(b));
    for (index_t i = 0; i < wm.size(); ++i) {
      const auto z = rng.cnormal();
      wm.data()[i] = cfloat(static_cast<float>(z.real()),
                            static_cast<float>(z.imag()));
    }
    w.weights.push_back(std::move(wm));
  }
  auto out = stap::easy_beamform(data, w, p);
  EXPECT_TRUE(stap::easy_beamform_check(data, w, p, out, -1, kTol));
  flip_float_bit(float_view(out), 30, /*salt=*/3);
  EXPECT_FALSE(stap::easy_beamform_check(data, w, p, out, -1, kTol));
}

TEST(KernelInvariants, HardBeamformChecksumCleanAndFlipped) {
  StapParams p;
  p.validate();
  const index_t bins = 4;
  const index_t jj = p.num_staggered_channels();
  const auto data = random_cube(bins, p.num_range, jj, 4);
  stap::WeightSet w;
  for (index_t b = 0; b < bins; ++b) w.bins.push_back(b);
  for (index_t i = 0; i < bins * p.num_segments; ++i) {
    linalg::MatrixCF wm(jj, p.num_beams);
    Rng rng(200 + static_cast<std::uint64_t>(i));
    for (index_t e = 0; e < wm.size(); ++e) {
      const auto z = rng.cnormal();
      wm.data()[e] = cfloat(static_cast<float>(z.real()),
                            static_cast<float>(z.imag()));
    }
    w.weights.push_back(std::move(wm));
  }
  auto out = stap::hard_beamform(data, w, p);
  EXPECT_TRUE(stap::hard_beamform_check(data, w, p, out, -1, kTol));
  flip_float_bit(float_view(out), 30, /*salt=*/5);
  EXPECT_FALSE(stap::hard_beamform_check(data, w, p, out, -1, kTol));
}

TEST(KernelInvariants, PulseCompressionEnergyCleanAndFlipped) {
  StapParams p;
  p.validate();
  synth::ScenarioParams sp;
  sp.num_range = p.num_range;
  sp.num_channels = p.num_channels;
  sp.num_pulses = p.num_pulses;
  synth::ScenarioGenerator gen(sp);
  stap::PulseCompressor pc(p, gen.replica());
  const auto bf = random_cube(6, p.num_beams, p.num_range, 6);
  std::vector<double> row_energy;
  auto power = pc.compress(bf, -1, &row_energy);
  EXPECT_TRUE(stap::pc_energy_check(power, row_energy, -1, kTol));
  flip_float_bit({power.data(), static_cast<size_t>(power.size())}, 30,
                 /*salt=*/9);
  EXPECT_FALSE(stap::pc_energy_check(power, row_energy, -1, kTol));
}

TEST(KernelInvariants, CfarVerifyCleanAndFlipped) {
  StapParams p;
  p.validate();
  const index_t bins_n = 4;
  Rng rng(7);
  cube::RealCube power(bins_n, p.num_beams, p.num_range);
  for (index_t i = 0; i < power.size(); ++i)
    power.data()[i] =
        static_cast<float>(1.0 + std::abs(rng.cnormal().real()));
  // A few hot cells so the detector reports something to corrupt.
  for (index_t b = 0; b < bins_n; ++b)
    power.at(b, 0, 100 + 7 * b) = 1e4f;
  std::vector<index_t> bins;
  for (index_t b = 0; b < bins_n; ++b) bins.push_back(b);
  auto dets = stap::cfar_detect(power, bins, p);
  ASSERT_FALSE(dets.empty());
  EXPECT_TRUE(stap::verify_detections(dets, power, bins, p));
  auto corrupt = dets;
  flip_float_bit({&corrupt[0].power, 1}, 30, 0);
  EXPECT_FALSE(stap::verify_detections(corrupt, power, bins, p));
  // Ordering is part of the contract too.
  if (dets.size() >= 2) {
    auto swapped = dets;
    std::swap(swapped.front(), swapped.back());
    EXPECT_FALSE(stap::verify_detections(swapped, power, bins, p));
  }
}

TEST(KernelInvariants, QrColumnNormResidualSmallOnCleanFactorization) {
  Rng rng(13);
  linalg::MatrixCF a(96, 12);
  for (index_t i = 0; i < a.size(); ++i) {
    const auto z = rng.cnormal();
    a.data()[i] = cfloat(static_cast<float>(z.real()),
                         static_cast<float>(z.imag()));
  }
  linalg::QrFactorization<cfloat> qr(a);
  EXPECT_LT(qr.column_norm_residual(), kTol);
  // The row-append (recursive) form preserves column norms as well.
  auto r_old = qr.r();
  linalg::MatrixCF x(8, 12);
  for (index_t i = 0; i < x.size(); ++i) {
    const auto z = rng.cnormal();
    x.data()[i] = cfloat(static_cast<float>(z.real()),
                         static_cast<float>(z.imag()));
  }
  auto x_copy = x;
  auto r_new = linalg::qr_append_rows(r_old, std::move(x));
  EXPECT_LT(linalg::append_column_norm_residual(r_old, x_copy, r_new),
            kTol);
}

// ---------------------------------------------------------------------------
// Unit: the structured hard solve keeps the dense formulation's guards
// ---------------------------------------------------------------------------

// The hard solve as it was before it became a row append onto the carried
// R: a fresh dense QR of the stacked [R; C], gated on its column-norm
// residual and condition estimate, one diagonal-loading retry (zero weights
// when even the loaded factor is singular or non-finite), then the
// bad-column patch. Returns only the counters it raises.
stap::WeightHealth dense_hard_counters(const StapParams& p,
                                       const linalg::MatrixCF& steering,
                                       index_t bin, const linalg::MatrixCF& r) {
  const index_t j = p.num_channels, jj = p.num_staggered_channels();
  const index_t m = p.num_beams;
  const double phi = -2.0 * std::numbers::pi * static_cast<double>(bin) *
                     static_cast<double>(p.stagger) /
                     static_cast<double>(p.num_pulses);
  const cfloat stag_phase(static_cast<float>(std::cos(phi)),
                          static_cast<float>(std::sin(phi)));
  double acc = 0.0;
  for (index_t i = 0; i < jj; ++i)
    for (index_t c = i; c < jj; ++c) acc += std::abs(r(i, c));
  const auto scale = static_cast<float>(acc / (jj * (jj + 1) / 2));
  const float avg = static_cast<float>(p.beam_constraint_wt) * scale;
  linalg::MatrixCF a(jj + j, jj), b(jj + j, m);
  for (index_t row = 0; row < jj; ++row)
    for (index_t col = row; col < jj; ++col) a(row, col) = r(row, col);
  for (index_t row = 0; row < j; ++row) {
    a(jj + row, row) = avg;
    a(jj + row, j + row) = avg * stag_phase;
    for (index_t c = 0; c < m; ++c) b(jj + row, c) = steering(row, c);
  }

  stap::WeightHealth h;
  const double tol = p.abft_tolerance;
  linalg::QrFactorization<cfloat> qr(a);
  linalg::MatrixCF w;
  const bool residual_bad = tol > 0.0 && qr.column_norm_residual() > tol;
  if (!residual_bad && qr.condition_estimate() <= p.condition_threshold) {
    w = qr.solve(b);
  } else {
    ++(residual_bad ? h.qr_residual_retries : h.loading_retries);
    const float load = scale > 0.0f && std::isfinite(scale) ? scale : 1.0f;
    linalg::MatrixCF a2(jj + j + jj, jj), b2(jj + j + jj, m);
    for (index_t row = 0; row < jj + j; ++row) {
      for (index_t col = 0; col < jj; ++col) a2(row, col) = a(row, col);
      for (index_t c = 0; c < m; ++c) b2(row, c) = b(row, c);
    }
    for (index_t i = 0; i < jj; ++i) a2(jj + j + i, i) = load;
    linalg::QrFactorization<cfloat> qr2(a2);
    if (tol > 0.0 && qr2.column_norm_residual() > tol)
      ++h.qr_residual_rejects;
    w = std::isfinite(qr2.condition_estimate()) ? qr2.solve(b2)
                                                : linalg::MatrixCF(jj, m);
  }
  for (index_t c = 0; c < w.cols(); ++c) {
    double norm_sq = 0.0;
    for (index_t i = 0; i < w.rows(); ++i)
      norm_sq += static_cast<double>(linalg::abs_sq(w(i, c)));
    if (!std::isfinite(norm_sq) || norm_sq == 0.0) {
      ++h.quiescent_fallbacks;
      break;
    }
  }
  return h;
}

// One solve of a one-unit hard computer whose carried factor is `r`
// (installed through the checkpoint path); returns the counters it raised.
stap::WeightHealth structured_hard_counters(const StapParams& p,
                                            const linalg::MatrixCF& steering,
                                            const stap::HardUnit& unit,
                                            const linalg::MatrixCF& r) {
  stap::HardWeightComputer comp(p, steering, {unit});
  std::stringstream state;
  const std::uint64_t count = 1;
  state.write(reinterpret_cast<const char*>(&count), sizeof(count));
  linalg::write_matrix(state, r);
  comp.restore(state);
  (void)comp.compute();
  return comp.health();
}

TEST(HardSolveGuards, RaiseTheDenseFormulationsCounters) {
  StapParams p = StapParams::small_test();
  p.abft_tolerance = IntegrityConfig{}.tolerance;
  const auto steering = synth::steering_matrix(
      p.num_channels, p.num_beams, p.beam_center_rad, p.beam_span_rad);
  const stap::HardUnit unit{p.hard_bins()[1], 0};
  const index_t jj = p.num_staggered_channels();

  Rng rng(31);
  linalg::MatrixCF data(3 * jj, jj);
  for (index_t i = 0; i < data.size(); ++i) {
    const auto z = rng.cnormal();
    data.data()[i] = cfloat(static_cast<float>(z.real()),
                            static_cast<float>(z.imag()));
  }
  const auto clean = linalg::QrFactorization<cfloat>(data).r();
  auto perturbed = clean;
  perturbed(1, 4) = cfloat(1e30f, 0.0f);  // overflows the column norms
  linalg::MatrixCF rank_one(jj, jj);
  for (index_t c = 0; c < jj; ++c) rank_one(0, c) = cfloat(1.0f, 0.5f);
  auto nonfinite = clean;
  nonfinite(2, 2) = cfloat(std::numeric_limits<float>::quiet_NaN(), 0.0f);

  struct Case {
    const char* name;
    const linalg::MatrixCF& r;
    std::uint64_t stap::WeightHealth::*fires;
  };
  const Case cases[] = {
      {"perturbed element", perturbed,
       &stap::WeightHealth::qr_residual_retries},
      {"rank-deficient R", rank_one, &stap::WeightHealth::loading_retries},
      {"non-finite R", nonfinite, &stap::WeightHealth::quiescent_fallbacks},
  };
  EXPECT_TRUE(structured_hard_counters(p, steering, unit, clean).clean());
  EXPECT_TRUE(dense_hard_counters(p, steering, unit.bin, clean).clean());
  for (const Case& c : cases) {
    const auto got = structured_hard_counters(p, steering, unit, c.r);
    const auto want = dense_hard_counters(p, steering, unit.bin, c.r);
    EXPECT_EQ(got.*c.fires, 1u) << c.name;
    EXPECT_EQ(got.qr_residual_retries, want.qr_residual_retries) << c.name;
    EXPECT_EQ(got.qr_residual_rejects, want.qr_residual_rejects) << c.name;
    EXPECT_EQ(got.loading_retries, want.loading_retries) << c.name;
    EXPECT_EQ(got.quiescent_fallbacks, want.quiescent_fallbacks) << c.name;
    EXPECT_EQ(got.nonfinite_training_blocks, 0u) << c.name;
  }
}

// ---------------------------------------------------------------------------
// Pipeline: detect -> recompute-once -> escalate
// ---------------------------------------------------------------------------

// Low dynamic range scene (CNR 10 dB): the energy invariants compare
// against whole-line energy, so every representable exponent flip lands
// above the relative tolerance and detection is deterministic, not
// scene-dependent. The strong target keeps the CFAR report list non-empty
// on every CPI so report-buffer flips always have a victim.
struct Fixture {
  StapParams p;
  synth::ScenarioParams sp;

  static Fixture make() {
    Fixture f;
    f.p = StapParams::small_test();
    f.p.num_range = 128;
    f.p.num_channels = 8;
    f.p.num_pulses = 32;
    f.p.num_beams = 2;
    f.p.num_hard = 12;
    f.p.stagger = 2;
    f.p.num_segments = 3;
    f.p.easy_samples_per_cpi = 24;
    f.p.hard_samples_per_segment = 16;
    f.p.cfar_ref = 6;
    f.p.cfar_guard = 2;
    // Permissive CFAR: noise-driven reports on essentially every CPI give
    // the report-buffer flip a guaranteed victim; false alarms are just as
    // good as targets for exercising detection-list integrity.
    f.p.cfar_pfa = 1e-3;
    f.p.validate();
    f.sp.num_range = f.p.num_range;
    f.sp.num_channels = f.p.num_channels;
    f.sp.num_pulses = f.p.num_pulses;
    f.sp.clutter.num_patches = 8;
    f.sp.clutter.cnr_db = 10.0;
    f.sp.chirp_length = 16;
    f.sp.targets.push_back(synth::Target{45, 10.0 / 32.0, 0.0, 40.0});
    return f;
  }

  linalg::MatrixCF steering() const {
    return synth::steering_matrix(p.num_channels, p.num_beams,
                                  p.beam_center_rad, p.beam_span_rad);
  }
};

core::PipelineResult run_pipeline(const Fixture& f, index_t n_cpis,
                                  bool abft, FaultPlan* plan,
                                  const core::NodeAssignment& a = {}) {
  synth::ScenarioGenerator gen(f.sp);
  core::ParallelStapPipeline par(
      f.p, a, f.steering(), {gen.replica().begin(), gen.replica().end()});
  IntegrityConfig ic;
  ic.enabled = abft;
  par.set_integrity(ic);
  if (plan != nullptr) par.set_fault_plan(plan);
  return par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);
}

bool same_detections(const std::vector<std::vector<stap::Detection>>& a,
                     const std::vector<std::vector<stap::Detection>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (size_t j = 0; j < a[i].size(); ++j) {
      const auto& x = a[i][j];
      const auto& y = b[i][j];
      if (x.doppler_bin != y.doppler_bin || x.beam != y.beam ||
          x.range != y.range || x.power != y.power ||
          x.threshold != y.threshold)
        return false;
    }
  }
  return true;
}

TEST(IntegrityPipeline, CleanRunLedgerCleanAndBitIdenticalToAbftOff) {
  auto f = Fixture::make();
  const auto off = run_pipeline(f, 6, /*abft=*/false, nullptr);
  const auto on = run_pipeline(f, 6, /*abft=*/true, nullptr);
  EXPECT_TRUE(on.integrity.clean());
  EXPECT_GT(on.integrity.checks_passed, 0u);
  EXPECT_EQ(on.integrity.recomputes, 0u);
  EXPECT_EQ(on.integrity.escalations, 0u);
  EXPECT_TRUE(on.integrity.events.empty());
  // The invariants and digests are observers: output is bit-identical.
  EXPECT_TRUE(same_detections(on.detections, off.detections));
  // ABFT-off runs carry an empty ledger.
  EXPECT_TRUE(off.integrity.clean());
  EXPECT_EQ(off.integrity.checks_passed, 0u);
}

TEST(IntegrityPipeline, EveryStageFlipDetectedAndRepairedBitExact) {
  auto f = Fixture::make();
  const index_t n_cpis = 8;
  const auto ref = run_pipeline(f, n_cpis, /*abft=*/true, nullptr);
  ASSERT_TRUE(ref.integrity.clean());
  // The CFAR flip needs a report to corrupt on the target CPI, so aim at
  // a mid-stream CPI that actually produced detections.
  index_t flip_cpi = -1;
  for (index_t cpi = 2; cpi < n_cpis - 1; ++cpi)
    if (!ref.detections[static_cast<size_t>(cpi)].empty()) {
      flip_cpi = cpi;
      break;
    }
  ASSERT_GE(flip_cpi, 0) << "scene produced no detections to corrupt";

  for (int task = 0; task < stap::kNumTasks; ++task) {
    FaultPlan plan(/*seed=*/77);
    plan.add_compute(FaultPlan::flip_stage(task, flip_cpi));
    const auto res = run_pipeline(f, n_cpis, /*abft=*/true, &plan);
    EXPECT_GE(plan.stats().flips, 1u) << "task=" << task;
    // Every injected flip was caught (the detection-rate identity) and
    // repaired by the single bounded recompute.
    EXPECT_EQ(res.integrity.checks_failed, plan.stats().flips)
        << "task=" << task;
    EXPECT_EQ(res.integrity.repairs, res.integrity.checks_failed)
        << "task=" << task;
    EXPECT_EQ(res.integrity.escalations, 0u) << "task=" << task;
    ASSERT_EQ(res.integrity.events.size(),
              static_cast<size_t>(res.integrity.checks_failed));
    for (const auto& e : res.integrity.events) {
      EXPECT_EQ(e.task, task);
      EXPECT_EQ(e.cpi, flip_cpi);
      EXPECT_TRUE(e.repaired);
    }
    // Repair means bit-exact, not approximately right.
    EXPECT_TRUE(same_detections(res.detections, ref.detections))
        << "task=" << task;
  }
}

TEST(IntegrityPipeline, PersistentCorruptionEscalatesToOneLedgeredShed) {
  auto f = Fixture::make();
  const index_t n_cpis = 6;
  const index_t bad_cpi = 3;
  // The default layout, then two Doppler ranks repeated ten times: the
  // rule is pinned to the last Doppler rank, or a max_applications = 2
  // plan could spend its flips on two ranks that each repair their own.
  const std::pair<core::NodeAssignment, int> inputs[] = {
      {core::NodeAssignment{}, 1},
      {core::NodeAssignment{{2, 1, 1, 1, 1, 1, 1}}, 10}};
  for (const auto& [a, reps] : inputs) {
    const auto ref = run_pipeline(f, n_cpis, /*abft=*/true, nullptr, a);
    for (int rep = 0; rep < reps; ++rep) {
      SCOPED_TRACE(::testing::Message()
                   << "doppler ranks " << a[Task::kDopplerFilter]
                   << " rep " << rep);
      FaultPlan plan(/*seed=*/78);
      plan.add_compute(FaultPlan::flip_stage(
          static_cast<int>(Task::kDopplerFilter), bad_cpi, /*bit=*/30,
          /*max_applications=*/2,  // corrupt the recompute too
          /*rank=*/a.first_rank(Task::kDopplerFilter) +
              a[Task::kDopplerFilter] - 1));
      const auto res = run_pipeline(f, n_cpis, /*abft=*/true, &plan, a);

      EXPECT_EQ(plan.stats().flips, 2u);
      EXPECT_EQ(res.integrity.escalations, 1u);
      EXPECT_EQ(res.integrity.recomputes, 1u);
      EXPECT_EQ(res.integrity.repairs, 0u);
      ASSERT_FALSE(res.integrity.events.empty());
      EXPECT_FALSE(res.integrity.events.back().repaired);
      EXPECT_EQ(res.integrity.events.back().cpi, bad_cpi);
      EXPECT_EQ(res.integrity.events.back().task,
                static_cast<int>(Task::kDopplerFilter));
      // The corrupt CPI was refused, not published: exactly one shed. CPIs
      // before it are bit-exact; CPIs after it legitimately diverge from
      // the fault-free reference because the shed CPI's training snapshots
      // are missing from the adaptive weight history.
      ASSERT_EQ(res.faults.shed_cpis, std::vector<index_t>{bad_cpi});
      EXPECT_TRUE(res.detections[static_cast<size_t>(bad_cpi)].empty());
      for (index_t cpi = 0; cpi < bad_cpi; ++cpi)
        EXPECT_TRUE(same_detections(
            {res.detections[static_cast<size_t>(cpi)]},
            {ref.detections[static_cast<size_t>(cpi)]}))
            << "cpi=" << cpi;
    }
  }
}

}  // namespace
}  // namespace ppstap
