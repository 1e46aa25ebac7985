// Tests for the parallel pipelined STAP system: node assignment rules, the
// CPI source, and — centrally — that the parallel pipeline produces the
// same detections as the sequential reference for arbitrary processor
// assignments (the paper's correctness premise: parallelization changes
// performance, never results).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>

#include "core/assignment.hpp"
#include "core/cpi_source.hpp"
#include "core/pipeline.hpp"
#include "stap/sequential.hpp"
#include "synth/steering.hpp"

namespace ppstap::core {
namespace {

using stap::StapParams;
using stap::Task;
using synth::ScenarioGenerator;
using synth::ScenarioParams;
using synth::Target;

TEST(Assignment, PaperCasesHavePaperTotals) {
  EXPECT_EQ(NodeAssignment::paper_case1().total(), 236);
  EXPECT_EQ(NodeAssignment::paper_case2().total(), 118);
  EXPECT_EQ(NodeAssignment::paper_case3().total(), 59);
  EXPECT_EQ(NodeAssignment::paper_table9().total(), 122);
  EXPECT_EQ(NodeAssignment::paper_table10().total(), 138);
}

TEST(Assignment, PaperCasesValidateAgainstPaperParams) {
  StapParams p;  // defaults = paper configuration
  NodeAssignment::paper_case1().validate(p);
  NodeAssignment::paper_case2().validate(p);
  NodeAssignment::paper_case3().validate(p);
  NodeAssignment::paper_table9().validate(p);
  NodeAssignment::paper_table10().validate(p);
}

TEST(Assignment, FirstRankLayoutIsContiguous) {
  auto a = NodeAssignment::paper_case3();  // {8,4,28,4,7,4,4}
  EXPECT_EQ(a.first_rank(Task::kDopplerFilter), 0);
  EXPECT_EQ(a.first_rank(Task::kEasyWeight), 8);
  EXPECT_EQ(a.first_rank(Task::kHardWeight), 12);
  EXPECT_EQ(a.first_rank(Task::kEasyBeamform), 40);
  EXPECT_EQ(a.first_rank(Task::kHardBeamform), 44);
  EXPECT_EQ(a.first_rank(Task::kPulseCompression), 51);
  EXPECT_EQ(a.first_rank(Task::kCfar), 55);
}

TEST(Assignment, RejectsOversubscription) {
  StapParams p = StapParams::small_test();
  NodeAssignment a;
  a[Task::kDopplerFilter] = static_cast<int>(p.num_range) + 1;
  EXPECT_THROW(a.validate(p), Error);
  NodeAssignment b;
  b[Task::kEasyWeight] = static_cast<int>(p.num_easy()) + 1;
  EXPECT_THROW(b.validate(p), Error);
  NodeAssignment c;
  c[Task::kHardWeight] =
      static_cast<int>(p.num_hard * p.num_segments);  // exactly at limit: ok
  c.validate(p);
  c[Task::kHardWeight] += 1;
  EXPECT_THROW(c.validate(p), Error);
}

TEST(Assignment, RejectsZeroNodes) {
  StapParams p = StapParams::small_test();
  NodeAssignment a;
  a[Task::kCfar] = 0;
  EXPECT_THROW(a.validate(p), Error);
}

TEST(CpiSource, SharesGeneratedCubes) {
  ScenarioParams sp;
  sp.num_range = 16;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  ScenarioGenerator gen(sp);
  CpiSource source(gen);
  auto a = source.get(0);
  auto b = source.get(0);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(source.regeneration_count(), 0);
}

TEST(CpiSource, RegeneratesEvictedCpisCorrectly) {
  ScenarioParams sp;
  sp.num_range = 16;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  ScenarioGenerator gen(sp);
  CpiSource source(gen, /*window=*/1);
  auto first = source.get(0);
  (void)source.get(5);  // evicts 0
  auto again = source.get(0);
  EXPECT_EQ(source.regeneration_count(), 1);
  for (index_t i = 0; i < first->size(); ++i)
    EXPECT_EQ(first->data()[i], again->data()[i]);
}

TEST(CpiSource, ConcurrentConsumersShareOneGeneration) {
  ScenarioParams sp;
  sp.num_range = 24;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  ScenarioGenerator gen(sp);
  CpiSource source(gen, /*window=*/8);
  // Many threads demanding overlapping CPI windows: every cube identical
  // per index, no regeneration while within the window.
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      for (index_t cpi = 0; cpi < 6; ++cpi) {
        auto a = source.get(cpi);
        auto b = source.get(cpi);
        if (a.get() != b.get()) mismatches.fetch_add(1);
        (void)t;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(source.regeneration_count(), 0);
}

TEST(CpiSource, StragglerWithinBoundIsTolerated) {
  ScenarioParams sp;
  sp.num_range = 16;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  ScenarioGenerator gen(sp);
  // A straggler alternating with a fast consumer regenerates its evicted
  // cube every time but stays under the bound.
  CpiSource source(gen, /*window=*/1, /*max_regenerations=*/8);
  (void)source.get(0);
  for (index_t i = 0; i < 4; ++i) {
    (void)source.get(6 + i);  // fast consumer far ahead, evicts 0
    (void)source.get(0);      // straggler regenerates
  }
  EXPECT_EQ(source.regeneration_count(), 4);
}

TEST(CpiSource, RegenerationStormThrows) {
  ScenarioParams sp;
  sp.num_range = 16;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  ScenarioGenerator gen(sp);
  CpiSource source(gen, /*window=*/1, /*max_regenerations=*/3);
  EXPECT_THROW(
      {
        for (index_t i = 0; i < 10; ++i) {
          (void)source.get(6 + i);
          (void)source.get(0);
        }
      },
      Error);
  // The bound fired after exactly max_regenerations + 1 regenerations.
  EXPECT_EQ(source.regeneration_count(), 4);
}

ScenarioParams tiny_scene() {
  ScenarioParams sp;
  sp.num_range = 16;
  sp.num_channels = 2;
  sp.num_pulses = 8;
  sp.clutter.num_patches = 2;
  sp.chirp_length = 0;
  return sp;
}

bool same_bytes(const cube::CpiCube& a, const cube::CpiCube& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(cfloat)) == 0;
}

TEST(CpiSource, LookedAheadCubeEqualsGenerate) {
  ScenarioGenerator gen(tiny_scene());
  std::mutex mu;
  std::map<index_t, std::thread::id> generated_on;
  CpiSource source([&](index_t cpi) {
    {
      std::lock_guard<std::mutex> lock(mu);
      generated_on[cpi] = std::this_thread::get_id();
    }
    return gen.generate(cpi);
  });
  source.start(/*end=*/4);
  (void)source.get(0);  // hands CPI 1 to the source thread
  const auto ahead = source.get(1);
  EXPECT_TRUE(same_bytes(*ahead, gen.generate(1)));
  EXPECT_EQ(source.times_generated(1), 1);
  EXPECT_EQ(source.regeneration_count(), 0);
  // Both cubes came from the source thread, not from the caller's get().
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_NE(generated_on.at(0), std::this_thread::get_id());
  EXPECT_NE(generated_on.at(1), std::this_thread::get_id());
}

TEST(CpiSource, StreamGeneratesEachCpiOnceAndNonePastTheEnd) {
  ScenarioGenerator gen(tiny_scene());
  std::atomic<int> calls{0};
  const index_t n = 5;
  {
    CpiSource source(
        [&](index_t cpi) {
          calls.fetch_add(1);
          return gen.generate(cpi);
        });
    source.start(n);
    for (index_t cpi = 0; cpi < n; ++cpi) (void)source.get(cpi);
    // Taking the last CPI must not queue one past the end; give such a
    // stray look-ahead time to start before the checks and the
    // destructor's stop.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (index_t cpi = 0; cpi < n; ++cpi)
      EXPECT_EQ(source.times_generated(cpi), 1) << "cpi " << cpi;
    EXPECT_EQ(source.times_generated(n), 0);
  }
  EXPECT_EQ(calls.load(), n);
}

TEST(CpiSource, CpiRejectedAtAdmissionIsNeverGenerated) {
  ScenarioGenerator gen(tiny_scene());
  const index_t n = 8;
  OverloadConfig cfg;
  cfg.enabled = true;
  cfg.ladder = false;
  cfg.queue_low = 1;
  cfg.queue_high = 2;
  OverloadController ctrl(cfg, n);
  CpiSource source(gen);
  source.set_overload_controller(&ctrl);
  source.start(n);
  // Nothing completes, so the backlog pins at the bound and every CPI
  // after the first two is rejected.
  std::vector<index_t> rejected;
  for (index_t cpi = 0; cpi < n; ++cpi) {
    if (source.admit(cpi).admit) {
      (void)source.get(cpi);
      EXPECT_EQ(source.times_generated(cpi), 1) << "cpi " << cpi;
    } else {
      rejected.push_back(cpi);
    }
  }
  ASSERT_FALSE(rejected.empty());
  for (const index_t cpi : rejected)
    EXPECT_EQ(source.times_generated(cpi), 0) << "cpi " << cpi;
}

TEST(CpiSource, GeneratorExceptionSurfacesAtGet) {
  ScenarioGenerator gen(tiny_scene());
  CpiSource source([&](index_t cpi) {
    if (cpi == 1) throw Error("front end failed");
    return gen.generate(cpi);
  });
  source.start(/*end=*/3);
  (void)source.get(0);
  // Every rank that waits for the failed cube sees the error.
  EXPECT_THROW((void)source.get(1), Error);
  EXPECT_THROW((void)source.get(1), Error);
}

TEST(CpiSource, DestructionWithGenerationInFlightJoins) {
  ScenarioGenerator gen(tiny_scene());
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  {
    CpiSource source([&](index_t cpi) {
      started.fetch_add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      finished.fetch_add(1);
      return gen.generate(cpi);
    });
    source.start(/*end=*/10);
    (void)source.get(0);  // CPI 1 is now queued or in flight
  }
  // The destructor waited for the generation it found in flight.
  EXPECT_EQ(started.load(), finished.load());
  EXPECT_LE(started.load(), 2);
}

// ---------------------------------------------------------------------------
// Parallel pipeline == sequential reference
// ---------------------------------------------------------------------------

struct Fixture {
  StapParams p;
  ScenarioParams sp;

  static Fixture make() {
    Fixture f;
    f.p = StapParams::small_test();
    f.p.num_range = 48;
    f.p.num_channels = 4;
    f.p.num_pulses = 16;
    f.p.num_beams = 2;
    f.p.num_hard = 6;
    f.p.stagger = 2;
    f.p.num_segments = 2;
    f.p.easy_samples_per_cpi = 12;
    f.p.hard_samples_per_segment = 10;
    f.p.cfar_ref = 4;
    f.p.cfar_guard = 1;
    f.p.validate();

    f.sp.num_range = f.p.num_range;
    f.sp.num_channels = f.p.num_channels;
    f.sp.num_pulses = f.p.num_pulses;
    f.sp.clutter.num_patches = 6;
    f.sp.clutter.cnr_db = 35.0;
    f.sp.chirp_length = 6;
    f.sp.targets.push_back(Target{21, 8.0 / 16.0, 0.05, 15.0});
    return f;
  }

  linalg::MatrixCF steering() const {
    return synth::steering_matrix(p.num_channels, p.num_beams,
                                  p.beam_center_rad, p.beam_span_rad);
  }
};

// Run both implementations on the same stream and compare detections.
void expect_matches_sequential(const Fixture& f, const NodeAssignment& a,
                               index_t n_cpis) {
  ScenarioGenerator gen(f.sp);

  stap::SequentialStap seq(f.p, f.steering(), gen.replica());
  std::vector<std::vector<stap::Detection>> ref;
  for (index_t cpi = 0; cpi < n_cpis; ++cpi)
    ref.push_back(seq.process(gen.generate(cpi)).detections);

  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  auto result = par.run(gen, n_cpis, /*warmup=*/1, /*cooldown=*/1);

  ASSERT_EQ(result.detections.size(), static_cast<size_t>(n_cpis));
  for (index_t cpi = 0; cpi < n_cpis; ++cpi) {
    auto sorted_ref = ref[static_cast<size_t>(cpi)];
    std::sort(sorted_ref.begin(), sorted_ref.end(),
              [](const auto& x, const auto& y) {
                return std::tie(x.doppler_bin, x.beam, x.range) <
                       std::tie(y.doppler_bin, y.beam, y.range);
              });
    const auto& got = result.detections[static_cast<size_t>(cpi)];
    ASSERT_EQ(got.size(), sorted_ref.size()) << "cpi=" << cpi;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].doppler_bin, sorted_ref[i].doppler_bin);
      EXPECT_EQ(got[i].beam, sorted_ref[i].beam);
      EXPECT_EQ(got[i].range, sorted_ref[i].range);
      EXPECT_NEAR(got[i].power, sorted_ref[i].power,
                  2e-2f * std::abs(sorted_ref[i].power) + 1e-5f);
    }
  }
}

TEST(ParallelPipeline, SingleNodePerTaskMatchesSequential) {
  auto f = Fixture::make();
  NodeAssignment a;  // all ones
  expect_matches_sequential(f, a, 4);
}

TEST(ParallelPipeline, BalancedAssignmentMatchesSequential) {
  auto f = Fixture::make();
  NodeAssignment a{{4, 2, 4, 2, 2, 2, 2}};
  expect_matches_sequential(f, a, 5);
}

TEST(ParallelPipeline, UnevenAssignmentMatchesSequential) {
  auto f = Fixture::make();
  // Deliberately awkward: partitions that do not divide the work evenly and
  // more weight nodes than beamform nodes.
  NodeAssignment a{{3, 5, 7, 2, 3, 5, 3}};
  expect_matches_sequential(f, a, 4);
}

TEST(ParallelPipeline, MaximallyParallelWeightTask) {
  auto f = Fixture::make();
  // Hard weights at one unit per node (num_hard * segments = 12).
  NodeAssignment a{{2, 2, 12, 2, 6, 2, 2}};
  expect_matches_sequential(f, a, 4);
}

TEST(ParallelPipeline, ReportsTimingAndThroughput) {
  auto f = Fixture::make();
  NodeAssignment a{{2, 1, 2, 1, 1, 1, 1}};
  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(),
                           {gen.replica().begin(), gen.replica().end()});
  auto result = par.run(gen, 6, 2, 2);
  EXPECT_GT(result.throughput, 0.0);
  EXPECT_GT(result.latency, 0.0);
  for (int t = 0; t < stap::kNumTasks; ++t) {
    const auto& tt = result.timing[static_cast<size_t>(t)];
    EXPECT_GE(tt.recv, 0.0);
    EXPECT_GE(tt.comp, 0.0);
    EXPECT_GE(tt.send, 0.0);
  }
  // Compute must be nonzero for the compute-heavy tasks.
  EXPECT_GT(result.timing[static_cast<size_t>(Task::kDopplerFilter)].comp,
            0.0);
  EXPECT_GT(result.timing[static_cast<size_t>(Task::kHardWeight)].comp, 0.0);
  // Sanity on measured inter-task volume: Doppler sends the most data.
  EXPECT_GT(result.bytes_sent_per_cpi[static_cast<size_t>(
                Task::kDopplerFilter)],
            result.bytes_sent_per_cpi[static_cast<size_t>(Task::kEasyWeight)]);
}

TEST(ParallelPipeline, RejectsMismatchedScenario) {
  auto f = Fixture::make();
  NodeAssignment a;
  ScenarioParams other = f.sp;
  other.num_range = f.sp.num_range * 2;
  ScenarioGenerator gen(other);
  ParallelStapPipeline par(f.p, a, f.steering(), {});
  EXPECT_THROW(par.run(gen, 4), Error);
}

TEST(ParallelPipeline, RejectsTooFewCpis) {
  auto f = Fixture::make();
  NodeAssignment a;
  ScenarioGenerator gen(f.sp);
  ParallelStapPipeline par(f.p, a, f.steering(), {});
  EXPECT_THROW(par.run(gen, 4, /*warmup=*/3, /*cooldown=*/2), Error);
}

}  // namespace
}  // namespace ppstap::core
