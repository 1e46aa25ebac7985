// Thread-safe CPI input feed for the parallel pipeline.
//
// In the flight system, CPI cubes arrive from the radar front end and every
// Doppler node reads its range slab of the same CPI. Here the scene
// generator plays the radar: generation is memoized so the P0 Doppler ranks
// share one cube per CPI, and cubes older than a small window are evicted
// (ranks proceed in near lockstep, bounded by pipeline backpressure; a
// straggler that misses the window transparently regenerates).
//
// The front end runs ahead of the pipeline. Once start() is called, the
// source owns one thread that generates CPI i + 1 as soon as a Doppler rank
// takes CPI i, off every rank's clock: the look-ahead is one CPI, the
// double buffer of the paper's Fig.-10 loop, which posts the receive of the
// next CPI before it computes the current one. get() returns a finished
// cube or waits for the one in flight. The thread never generates at or
// past the stream end it was started with, and never generates a CPI
// twice; only get() regenerates, inline, for a straggler. With an overload
// controller attached the source generates a CPI only once admission has
// accepted it, so its look-ahead is zero and a rejected CPI costs no
// front-end work. The pipeline stamps a CPI's latency start (input_ready)
// at the Doppler cycle's t0, so a cube generated ahead, as a radar's would
// be, is not part of the measured latency. An exception thrown by the
// generator on the source thread is rethrown to every get() of that CPI.
// Each generation emits one "generate" span (category "source") on
// obs::kSourceTrack; the source thread's spans carry rank -1.
//
// Regeneration is bounded: a straggler stuck behind the eviction window
// regenerates the full cube on every get(), which unchecked turns one slow
// rank into a compute storm. After `max_regenerations` the source throws
// instead — by then the pipeline is so far out of lockstep that failing
// loudly beats silently burning CPU. Each regeneration bumps the
// "cpi_source.regenerations" obs counter plus a per-rank
// "cpi_source.regenerations.rank<N>" counter (the storm's *culprit* is the
// straggling rank, and per-rank attribution is what the gray-failure
// robustness block surfaces); tripping the bound bumps
// "cpi_source.regeneration_storms" before throwing, so the storm is
// visible in the --json accounting and not only in the abort message.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "core/overload.hpp"
#include "synth/scenario.hpp"

namespace ppstap::core {

class CpiSource {
 public:
  /// Produces the cube of one CPI index; must be deterministic per index.
  using Generator = std::function<cube::CpiCube(index_t)>;

  explicit CpiSource(const synth::ScenarioGenerator& gen, index_t window = 4,
                     index_t max_regenerations = 64)
      : CpiSource([&gen](index_t cpi) { return gen.generate(cpi); }, window,
                  max_regenerations) {}
  explicit CpiSource(Generator gen, index_t window = 4,
                     index_t max_regenerations = 64)
      : gen_(std::move(gen)),
        window_(window),
        max_regenerations_(max_regenerations) {}
  CpiSource(const CpiSource&) = delete;
  CpiSource& operator=(const CpiSource&) = delete;

  /// Stops the source thread and joins it, after the generation in flight
  /// (if any) finishes.
  ~CpiSource();

  /// Attach the overload controller gating this feed (nullptr detaches).
  /// Not thread safe; install before start() and before the pipeline
  /// starts pulling.
  void set_overload_controller(OverloadController* ctrl) { ctrl_ = ctrl; }

  /// Start the source thread for a stream of CPIs [0, end). Without a
  /// controller it begins on CPI 0 at once. Call at most once. Without
  /// start() every cube is generated inline by the first get().
  void start(index_t end);

  /// Admission gate for CPI `cpi`: pacing, the bounded-queue high
  /// watermark, and the degradation ladder all apply here, *before* the
  /// cube is generated — a rejected CPI costs no front-end work. An
  /// admitted CPI is handed to the source thread. Without a controller
  /// every CPI is admitted at full fidelity.
  OverloadController::Admission admit(index_t cpi);

  /// The full CPI cube for index `cpi` (shared, immutable). Throws once the
  /// total regeneration count exceeds the bound, or rethrows the source
  /// thread's generator exception for `cpi`. `rank` (when >= 0)
  /// attributes any regeneration to the calling rank in the per-rank
  /// accounting.
  std::shared_ptr<const cube::CpiCube> get(index_t cpi, int rank = -1);

  /// How many CPIs had to be generated more than once (eviction misses);
  /// useful as a health check in tests.
  index_t regeneration_count() const;

  /// How many times CPI `cpi` has been generated, counting a generation
  /// still in flight.
  int times_generated(index_t cpi) const;

  /// Per-rank regeneration attribution (rank -> count), for the
  /// gray-failure robustness accounting. Ranks that never regenerated are
  /// absent; calls without a rank land on key -1.
  std::map<int, index_t> regenerations_by_rank() const;

 private:
  using CubePtr = std::shared_ptr<const cube::CpiCube>;

  CubePtr generate_traced(index_t cpi, int rank) const;
  // Queue `cpi` for the source thread unless it is past the end or was
  // ever generated or queued.
  void request_locked(index_t cpi);
  bool pending_locked(index_t cpi) const;
  // A rank took `cpi`: evict cubes older than the window behind it and,
  // without a controller, queue the next CPI.
  void took_locked(index_t cpi);
  void run_source();

  Generator gen_;
  index_t window_;
  index_t max_regenerations_;
  OverloadController* ctrl_ = nullptr;
  mutable std::mutex mu_;
  std::condition_variable wake_;   // the source thread: work or stop
  std::condition_variable ready_;  // get(): a queued cube finished
  std::map<index_t, CubePtr> cache_;
  std::map<index_t, int> generated_;
  std::map<int, index_t> regen_by_rank_;
  index_t regenerations_ = 0;
  // Source thread state.
  index_t end_ = 0;
  std::deque<index_t> queue_;
  index_t inflight_ = -1;
  std::map<index_t, std::exception_ptr> errors_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace ppstap::core
