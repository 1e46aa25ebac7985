#include "core/cpi_source.hpp"

#include <algorithm>
#include <string>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ppstap::core {

CpiSource::~CpiSource() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CpiSource::start(index_t end) {
  PPSTAP_REQUIRE(!thread_.joinable(), "CpiSource::start called twice");
  std::lock_guard<std::mutex> lock(mu_);
  end_ = end;
  thread_ = std::thread([this] { run_source(); });
  if (ctrl_ == nullptr) request_locked(0);
}

OverloadController::Admission CpiSource::admit(index_t cpi) {
  if (ctrl_ == nullptr) return {};
  // The controller may block (pacing, throttle): decide outside our lock.
  const auto adm = ctrl_->admit(cpi);
  if (adm.admit) {
    std::lock_guard<std::mutex> lock(mu_);
    request_locked(cpi);
  }
  return adm;
}

std::shared_ptr<const cube::CpiCube> CpiSource::get(index_t cpi, int rank) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (auto it = errors_.find(cpi); it != errors_.end())
      std::rethrow_exception(it->second);
    if (auto it = cache_.find(cpi); it != cache_.end()) {
      CubePtr cube = it->second;
      took_locked(cpi);
      return cube;
    }
    if (!pending_locked(cpi)) break;
    ready_.wait(lock);
  }

  const int prior = generated_[cpi]++;
  if (prior > 0) {
    ++regenerations_;
    ++regen_by_rank_[rank];
    obs::Registry::global().counter("cpi_source.regenerations").add(1);
    if (rank >= 0)
      obs::Registry::global()
          .counter("cpi_source.regenerations.rank" + std::to_string(rank))
          .add(1);
    if (regenerations_ > max_regenerations_) {
      obs::Registry::global()
          .counter("cpi_source.regeneration_storms")
          .add(1);
      throw Error(
          "CPI regeneration storm: a straggler past the eviction window "
          "regenerated " +
          std::to_string(regenerations_) +
          " cubes (bound " + std::to_string(max_regenerations_) +
          "); the pipeline has fallen out of lockstep");
    }
  }
  // Generation is deterministic per index, so dropping the lock here would
  // only risk duplicate work; holding it keeps the accounting exact. Only a
  // straggler's regeneration, or a source that was never started, gets
  // here.
  CubePtr cube = generate_traced(cpi, rank);
  cache_[cpi] = cube;
  took_locked(cpi);
  return cube;
}

index_t CpiSource::regeneration_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return regenerations_;
}

int CpiSource::times_generated(index_t cpi) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = generated_.find(cpi);
  return it == generated_.end() ? 0 : it->second;
}

std::map<int, index_t> CpiSource::regenerations_by_rank() const {
  std::lock_guard<std::mutex> lock(mu_);
  return regen_by_rank_;
}

CpiSource::CubePtr CpiSource::generate_traced(index_t cpi, int rank) const {
  const double t0 = WallTimer::now();
  auto cube = std::make_shared<const cube::CpiCube>(gen_(cpi));
  if (obs::tracing_enabled())
    obs::emit({"generate", "source", rank, obs::kSourceTrack,
               static_cast<std::int64_t>(cpi), t0, WallTimer::now(),
               static_cast<std::int64_t>(cube->size() * sizeof(cfloat)),
               -1});
  return cube;
}

void CpiSource::request_locked(index_t cpi) {
  if (!thread_.joinable() || cpi >= end_ || generated_.count(cpi) != 0 ||
      pending_locked(cpi))
    return;
  queue_.push_back(cpi);
  wake_.notify_one();
}

bool CpiSource::pending_locked(index_t cpi) const {
  return inflight_ == cpi ||
         std::find(queue_.begin(), queue_.end(), cpi) != queue_.end();
}

void CpiSource::took_locked(index_t cpi) {
  // Evicting relative to the CPI a rank takes, never to one generated
  // ahead, keeps the straggler window exactly `window_` CPIs.
  while (!cache_.empty() && cache_.begin()->first + window_ < cpi)
    cache_.erase(cache_.begin());
  if (ctrl_ == nullptr) request_locked(cpi + 1);
}

void CpiSource::run_source() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_) return;
    const index_t cpi = queue_.front();
    queue_.pop_front();
    inflight_ = cpi;
    ++generated_[cpi];
    lock.unlock();
    CubePtr cube;
    std::exception_ptr error;
    try {
      cube = generate_traced(cpi, -1);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    inflight_ = -1;
    if (cube)
      cache_[cpi] = std::move(cube);
    else
      errors_[cpi] = error;
    ready_.notify_all();
  }
}

}  // namespace ppstap::core
