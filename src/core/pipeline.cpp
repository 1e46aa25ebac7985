#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "common/backoff.hpp"
#include "common/checksum.hpp"
#include "common/timer.hpp"
#include "core/cpi_source.hpp"
#include "core/elastic.hpp"
#include "core/overload.hpp"
#include "core/sim.hpp"
#include "cube/partition.hpp"
#include "obs/trace.hpp"
#include "stap/beamform.hpp"
#include "stap/doppler.hpp"
#include "stap/pulse_compression.hpp"
#include "stap/training.hpp"
#include "stap/weights.hpp"

namespace ppstap::core {

namespace {

using comm::Comm;
using cube::BlockPartition;
using linalg::MatrixCF;
using stap::Task;

// Message tags: one slot per Fig.-4 edge (SimEdge, sim.hpp) per consumer
// CPI. The temporal dependencies TD_{1,3}/TD_{2,4} are realized by tagging
// the weight edges with the CPI that consumes the weights.
constexpr int kEdgeCount = 16;  // tag stride (power of two headroom)

int tag_for(index_t cpi, SimEdge e) {
  return static_cast<int>(cpi) * kEdgeCount + static_cast<int>(e);
}

// Slice of an ordered item list owned by part `p` of a partition.
template <typename T>
std::span<const T> slice(const std::vector<T>& list, const BlockPartition& bp,
                         index_t p) {
  return {list.data() + bp.offset(p), static_cast<size_t>(bp.length(p))};
}

struct Shared {
  Shared(const stap::StapParams& p_in, const NodeAssignment& a_in,
         const std::vector<MatrixCF>& steering_in,
         const std::vector<cfloat>& replica_in, CpiSource& source_in,
         index_t n_cpis_in, index_t warmup_in, index_t cooldown_in)
      : p(p_in),
        a(a_in),
        steering(steering_in),
        replica(replica_in),
        source(source_in),
        n_cpis(n_cpis_in),
        warmup(warmup_in),
        cooldown(cooldown_in) {}

  const stap::StapParams& p;
  const NodeAssignment& a;
  const std::vector<MatrixCF>& steering;  // per transmit position
  const std::vector<cfloat>& replica;
  CpiSource& source;
  index_t n_cpis, warmup, cooldown;

  /// The elastic migration engine owns the epoch sequence: every partner
  /// set and block partition is resolved per CPI through topo(cpi), so a
  /// committed migration changes the redistribution fan-out for CPI >= B
  /// on every rank at once. Always installed (a run with elastic disabled
  /// simply never leaves epoch 0).
  ElasticEngine* eng = nullptr;

  /// Gray-failure detector (PR 10; nullptr when PPSTAP_HEALTH is off).
  /// Every rank feeds its Fig.-10 timestamps in, the coordinator scans,
  /// and a quarantined rank honours the eviction flag at its next barrier.
  HealthMonitor* health = nullptr;

  std::vector<index_t> easy_bins, hard_bins, easy_cells;
  std::vector<std::vector<index_t>> hard_cells;  // per segment
  std::vector<stap::HardUnit> hard_units;        // bin-major over hard_bins

  // Fault-tolerance state (inert when ft.any() is false).
  FaultToleranceConfig ft;
  // Overload control (nullptr when disabled — the plain PR 2 pipeline).
  OverloadController* ctrl = nullptr;
  // ABFT integrity layer (PR 5; inert when integ.enabled is false). The
  // plan pointer doubles as the compute-stage flip-injection hook — flips
  // are applied even with verification off, so the ABFT-off arm of the
  // detection bench measures true silent corruption.
  IntegrityConfig integ;
  comm::FaultPlan* plan = nullptr;
  std::atomic<std::uint64_t> integ_checks_passed{0};
  std::atomic<std::uint64_t> integ_checks_failed{0};
  std::atomic<std::uint64_t> integ_recomputes{0};
  std::atomic<std::uint64_t> integ_repairs{0};
  std::atomic<std::uint64_t> integ_escalations{0};
  std::atomic<std::uint64_t> integ_digest_mismatches{0};
  std::array<std::atomic<std::uint64_t>,
             static_cast<size_t>(stap::kNumTasks)>
      integ_digest_by_task{};
  std::vector<IntegrityEvent> integ_events;  // guarded by mu
  // Numerical-health counters aggregated from every weight computer at
  // task exit; guarded by mu.
  stap::WeightHealth numerics;
  // Idle-poll wakeups of the spare rank's backoff ladder.
  std::atomic<std::uint64_t> spare_wakeups{0};
  std::atomic<bool> stream_done{false};  // every CFAR rank finished
  /// Per-(global rank) weight-state checkpoint: serialized computers and
  /// the CPI the restored rank should resume at. Guarded by mu.
  struct Checkpoint {
    index_t next_cpi = 0;
    std::string blob;
  };
  std::map<int, Checkpoint> checkpoints;
  std::vector<FailoverEvent> failovers;  // guarded by mu
  /// Idle members left in the universal spare pool. The claiming spare
  /// decrements; whoever takes the pool to zero clears every recoverable
  /// flag so further deaths surface as prompt dead-peer statuses instead
  /// of parking receivers on a recovery that will never come.
  std::atomic<int> spares_left{0};
  std::vector<HealingEvent> healing;  // guarded by mu

  std::mutex mu;
  std::vector<double> input_ready;  // per CPI, set by Doppler rank 0
  std::vector<double> completion;   // per CPI, set by the last CFAR rank
  std::vector<int> cfar_done;
  int cfar_ranks_finished = 0;
  std::vector<char> shed;  // per CPI, set by CFAR ranks
  std::vector<std::vector<stap::Detection>> detections;
  std::array<TaskTiming, stap::kNumTasks> timing_sum{};
  std::array<int, stap::kNumTasks> timing_ranks{};
  std::array<std::uint64_t, stap::kNumTasks> bytes_sent{};
  // Per-link (Fig. 4 edge) byte counters over the measured CPIs; updated
  // with relaxed atomics from the sending ranks.
  std::array<std::atomic<std::uint64_t>, kNumPipelineEdges> edge_bytes{};

  bool measured(index_t cpi) const {
    return cpi >= warmup && cpi < n_cpis - cooldown;
  }
  index_t measured_count() const { return n_cpis - warmup - cooldown; }

  /// Topology governing `cpi` (lock-free epoch lookup). Only the Doppler,
  /// pulse-compression and CFAR groups migrate; the weight and beamforming
  /// groups keep their epoch-0 membership and partitions.
  const Topology& topo(index_t cpi) const { return eng->topo(cpi); }
  /// Per-CPI migration hook: records progress, joins a pending barrier,
  /// returns the topology for `cpi`. Called at the top of every Fig.-10
  /// cycle before any receive or send for that CPI.
  const Topology& barrier(Comm& c, index_t cpi) {
    const Topology& tp = eng->barrier_point(c, cpi);
    // Quarantine hook: a confirmed straggler dies voluntarily at its next
    // CPI barrier — after progress was recorded for `cpi` but before any
    // receive or send for it — so the recovery machinery (spare takeover /
    // shrink) inherits the cleanest possible cut: the replacement re-enters
    // at exactly this CPI with nothing half-consumed. The flag is cleared
    // before a spare re-enters under this identity.
    if (health != nullptr && health->quarantine_requested(c.rank()))
      throw comm::RankKilled(c.rank());
    return tp;
  }

  // Task owning global rank `r` at `cpi`, as a stap::Task index (-1 for
  // the spare) — used to attribute end-to-end digest mismatches to the
  // producer across migration epochs.
  int task_of_rank(int r, index_t cpi) const {
    const Topology& tp = topo(cpi);
    for (size_t t = 0; t < tp.ranks.size(); ++t)
      for (const int rr : tp.ranks[t])
        if (rr == r) return static_cast<int>(t);
    return -1;
  }

  // Range-cell positions of `cells` inside Doppler rank d's slab under
  // partition `pk`, as indices into `cells` (so senders and receivers
  // agree on row order).
  std::vector<index_t> cell_positions_in_slab(
      const std::vector<index_t>& cells, index_t d,
      const BlockPartition& pk) const {
    const index_t k0 = pk.offset(d);
    const index_t k1 = k0 + pk.length(d);
    std::vector<index_t> out;
    for (size_t i = 0; i < cells.size(); ++i)
      if (cells[i] >= k0 && cells[i] < k1)
        out.push_back(static_cast<index_t>(i));
    return out;
  }
};

// Per-rank Figure-10 phase accumulator over the measured CPIs.
struct PhaseAcc {
  double recv = 0, comp = 0, send = 0;
  void commit(Shared& s, Task t, std::uint64_t bytes) {
    std::lock_guard<std::mutex> lock(s.mu);
    auto& sum = s.timing_sum[static_cast<size_t>(t)];
    const double inv = 1.0 / static_cast<double>(s.measured_count());
    sum.recv += recv * inv;
    sum.comp += comp * inv;
    sum.send += send * inv;
    s.timing_ranks[static_cast<size_t>(t)] += 1;
    s.bytes_sent[static_cast<size_t>(t)] += bytes;
  }
};

// --- ABFT integrity helpers (PR 5) -----------------------------------------

std::span<float> float_view(cube::CpiCube& cu) {
  return {reinterpret_cast<float*>(cu.data()),
          static_cast<size_t>(cu.size()) * 2};
}
std::span<float> float_view(cube::RealCube& cu) {
  return {cu.data(), static_cast<size_t>(cu.size())};
}

std::uint64_t flip_salt(int rank, index_t cpi, int attempt) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)) << 34) ^
         (static_cast<std::uint64_t>(cpi) << 2) ^
         static_cast<std::uint64_t>(attempt);
}

// Compute-stage fault injection: when the installed plan schedules a flip
// for (task, cpi, rank, attempt), corrupt one bit of the stage's freshly
// computed output. Applied before verification — and also when
// verification is off, so the ABFT-off arm of the detection bench measures
// true silent corruption.
void maybe_flip(Shared& s, Task t, index_t cpi, int rank, int attempt,
                std::span<float> out) {
  if (s.plan == nullptr) return;
  int bit = 30;
  if (s.plan->compute_flip_due(static_cast<int>(t), cpi, rank, attempt, &bit))
    flip_float_bit(out, bit, flip_salt(rank, cpi, attempt));
}

void maybe_flip_weights(Shared& s, Task t, index_t cpi, int rank, int attempt,
                        std::vector<MatrixCF>& ws) {
  if (s.plan == nullptr || ws.empty()) return;
  int bit = 30;
  if (!s.plan->compute_flip_due(static_cast<int>(t), cpi, rank, attempt, &bit))
    return;
  const std::uint64_t salt = flip_salt(rank, cpi, attempt);
  auto& wm = ws[static_cast<size_t>(salt % ws.size())];
  if (wm.size() == 0) return;
  flip_float_bit({reinterpret_cast<float*>(wm.data()),
                  static_cast<size_t>(wm.size()) * 2},
                 bit, salt >> 1);
}

// CFAR's output is a sparse detection list; the flip lands in a reported
// power value, which the exact power-lookup re-check catches bitwise.
void maybe_flip_detections(Shared& s, index_t cpi, int rank, int attempt,
                           std::vector<stap::Detection>& dets) {
  if (s.plan == nullptr || dets.empty()) return;
  int bit = 30;
  if (!s.plan->compute_flip_due(static_cast<int>(Task::kCfar), cpi, rank,
                                attempt, &bit))
    return;
  const std::uint64_t salt = flip_salt(rank, cpi, attempt);
  auto& d = dets[static_cast<size_t>(salt % dets.size())];
  flip_float_bit({&d.power, 1}, bit, salt);
}

// Weight-path invariant: the solve normalizes every column to unit 2-norm
// (zero columns are patched to quiescent first), so any corruption in the
// weight matrices shows directly in a column norm. Accumulates in double.
bool weights_unit_norm(const std::vector<MatrixCF>& ws, double tol) {
  for (const auto& wm : ws) {
    for (index_t col = 0; col < wm.cols(); ++col) {
      double nsq = 0.0;
      for (index_t row = 0; row < wm.rows(); ++row) {
        const cfloat v = wm(row, col);
        const double re = v.real(), im = v.imag();
        nsq += re * re + im * im;
      }
      if (!std::isfinite(nsq)) return false;
      if (nsq == 0.0) continue;  // a zero steering column stays zero
      if (std::abs(std::sqrt(nsq) - 1.0) > tol) return false;
    }
  }
  return true;
}

// The 8-byte end-to-end digest is bit-cast into trailing elements of the
// payload's own type and rides inside the data frame itself — a separate
// digest message would double the per-CPI message count, and on an
// oversubscribed host each extra message is a condvar wakeup. Markers carry
// no digest. Digest bytes bypass the byte accounting so the Table 2-6
// volume validation is unperturbed.
template <typename T>
constexpr size_t digest_elems() {
  static_assert(sizeof(std::uint64_t) % sizeof(T) == 0);
  return sizeof(std::uint64_t) / sizeof(T);
}

// Trace context for a redistribution frame on edge `e` toward the consumer
// of `cpi` (weight edges pass the consumer's CPI, so the flow lands on the
// chain that actually uses the weights). Built only when tracing is on.
comm::FlowContext flow_for(index_t cpi, SimEdge e) {
  comm::FlowContext fc;
  fc.cpi = static_cast<std::int64_t>(cpi);
  fc.task = static_cast<std::int16_t>(sim_edge_src(e));
  fc.edge = static_cast<std::int16_t>(e);
  fc.hop = e <= SimEdge::kDopToHardBf ? 1 : (e == SimEdge::kPcToCfar ? 3 : 2);
  return fc;
}

// One obs span per Figure-10 phase: recv [t0,t1), comp [t1,t2),
// send [t2,t3). `send_bytes` annotates the send span (0 on unmeasured
// CPIs, where byte accounting is off).
void emit_phase_spans(int rank, Task t, index_t cpi, double t0, double t1,
                      double t2, double t3, std::uint64_t send_bytes) {
  if (!obs::tracing_enabled()) return;
  const int task = static_cast<int>(t);
  const auto c = static_cast<std::int64_t>(cpi);
  obs::emit({"recv", "pipeline", rank, task, c, t0, t1, -1, -1});
  obs::emit({"comp", "pipeline", rank, task, c, t1, t2, -1, -1});
  obs::emit({"send", "pipeline", rank, task, c, t2, t3,
             static_cast<std::int64_t>(send_bytes), -1});
}

// Deadline-aware receive helper: one per rank, reset per CPI, and every
// stage's one receive path. With no fault-tolerance, overload or integrity
// layer armed (inactive) no CPI may shed: the budget is effectively
// infinite, and an input that cannot arrive (a dead peer, a marker, a frame
// corrupt past the retransmission budget) is an error. The helper must be
// active whenever *any* upstream task may emit markers — deadline shedding
// OR overload control. With shedding enabled, the first recv of a CPI
// starts the real-time budget; a recv that cannot complete within the
// remaining budget (or that delivers a shed marker / hits a dead peer /
// consumes an unrecoverably corrupt frame) returns nullopt, after which the
// CPI must be shed — unless the caller covers the miss from a fallback
// (cover(): beamforming's weight cache), in which case the remaining inputs
// keep the CPI's budget. After an uncovered miss the remaining inputs are
// still polled with a zero deadline so whatever already arrived is drained,
// and sources that never delivered go on the stale list — their late frames
// are discarded at the start of subsequent CPIs. (A kCorrupt frame is
// already consumed and is NOT staled.) With overload control but no
// shedding, the budget is effectively infinite: markers are recognized,
// nothing times out.
struct FtRecv {
  Comm& c;
  const FaultToleranceConfig& cfg;
  bool active = false;
  double budget = 0.0;    // per-CPI real-time budget, seconds
  double deadline = 0.0;  // absolute, WallTimer base
  bool missed = false;    // an uncovered input missed: the CPI sheds
  std::vector<std::pair<int, int>> stale{};  // (src, tag) awaiting discard

  void begin() {
    deadline = WallTimer::now() + budget;
    missed = false;
    for (auto it = stale.begin(); it != stale.end();)
      it = c.discard(it->first, it->second) > 0 ? stale.erase(it) : it + 1;
  }

  /// nullopt => marker, timeout, dead peer, or corrupt frame: the CPI
  /// cannot complete.
  std::optional<comm::Frame> recv(int src, int tag) {
    const double remaining =
        missed ? 0.0 : std::max(0.0, deadline - WallTimer::now());
    auto r = c.recv_for(src, tag, remaining);
    if (r.status == comm::RecvStatus::kPeerDead && cfg.heal_shrink) {
      // The dead peer is being healed by a topology shrink: hold the edge
      // to the CPI deadline like any other stall instead of shedding
      // instantly. A prompt dead-peer shed would let the sink sprint to
      // the end of the stream, pushing every rank's progress past the
      // last CPI a shrink barrier could legally be placed at — the
      // recovery would be unreachable exactly when it is configured.
      // CPIs re-routed by the committed shrink never touch this edge;
      // the in-flight ones shed here when the budget runs out.
      while (r.status == comm::RecvStatus::kPeerDead &&
             WallTimer::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        r = c.recv_for(src, tag, 0.0);
      }
    }
    if (r.ok()) return std::move(r.frame);
    if (!active)
      throw Error("pipeline input from rank " + std::to_string(src) +
                  " lost with no fault-tolerance layer armed");
    missed = true;
    if (r.status == comm::RecvStatus::kTimeout ||
        r.status == comm::RecvStatus::kPeerDead)
      stale.emplace_back(src, tag);
    return std::nullopt;
  }

  /// The caller served the inputs that missed from a fallback, so the CPI
  /// can still complete: later receives wait out the remaining budget
  /// instead of draining.
  void cover() { missed = false; }
};

// Budget large enough to be "never" yet safely representable in the comm
// layer's chrono arithmetic (about three years).
constexpr double kNoDeadline = 1e8;

FtRecv make_ftr(Comm& c, Shared& s) {
  FtRecv f{c, s.ft};
  // Integrity escalations emit shed markers on the regular edges, so every
  // receiver must recognize markers whenever the layer is on. Spare-rank
  // mode also needs the shed path: once the spare is consumed, a later
  // weight-rank death is unrecoverable and surfaces as a prompt dead-peer
  // status, and the CPI sheds.
  f.active = s.ft.any() || s.ctrl != nullptr || s.integ.enabled;
  f.budget = s.ft.shedding ? s.ft.cpi_deadline_seconds : kNoDeadline;
  return f;
}

// The payload of a received frame of T, without the digest trailing it when
// ABFT is on. The digest is compared against the bytes actually delivered;
// a mismatch is counted and attributed to the producing task. (The
// transport already checksums every frame, so a mismatch here means the
// producer's buffer changed between verification and pack, or the
// redistribution reassembly disagrees with the producer.)
template <typename T>
std::span<const T> payload(FtRecv& ftr, Shared& s, int src,
                           const comm::Frame& f, index_t cpi) {
  std::span<const T> buf = f.as<T>();
  if (!s.integ.enabled || buf.size() < digest_elems<T>()) return buf;
  std::uint64_t d = 0;
  std::memcpy(&d, buf.data() + buf.size() - digest_elems<T>(), sizeof d);
  buf = buf.first(buf.size() - digest_elems<T>());
  if (d == checksum_of(buf)) return buf;
  s.integ_digest_mismatches.fetch_add(1, std::memory_order_relaxed);
  const int t = s.task_of_rank(src, cpi);
  if (t >= 0)
    s.integ_digest_by_task[static_cast<size_t>(t)].fetch_add(
        1, std::memory_order_relaxed);
  if (obs::tracing_enabled()) {
    const double now = WallTimer::now();
    obs::emit({"digest_mismatch", "integrity", ftr.c.rank(),
               obs::kIntegrityTrack, static_cast<std::int64_t>(cpi), now, now,
               -1, static_cast<std::int64_t>(src)});
  }
  return buf;
}

// Gray-failure injection (kSlow): stretch this rank's compute stage by the
// plan's multiplicative slowdown, realized as a sleep on top of the real
// execution time. A revived rank — a spare wearing a quarantined rank's
// identity — is exempt: the rule modeled the evicted hardware, not its
// healthy replacement.
void maybe_straggle(Comm& c, Shared& s, index_t cpi, double elapsed) {
  if (s.plan == nullptr) return;
  if (s.health != nullptr && s.health->revived(c.rank())) return;
  const double f = s.plan->slow_factor_due(c.rank(), cpi);
  if (f <= 1.0) return;
  std::this_thread::sleep_for(
      std::chrono::duration<double>((f - 1.0) * elapsed));
}

// Health sampling: one intrinsic-service / queue-wait pair per completed
// Fig.-10 cycle. Service is t3 - t1 — the receive wait is excluded, so a
// rank merely starved behind an upstream straggler is never flagged itself.
void observe_health(Comm& c, Shared& s, Task t, index_t cpi, double t0,
                    double t1, double t3) {
  if (s.health != nullptr)
    s.health->observe(c.rank(), static_cast<int>(t), cpi, t3 - t1, t1 - t0);
}

// Sink-side detector tick: score every task group's live members.
// Eviction viability rides along — a spare left in the pool, else the
// shrink protocol — so the do-no-harm gate can refuse quarantines nobody
// could heal.
void health_scan(Shared& s, const Topology& tp, index_t cpi) {
  if (s.health == nullptr) return;
  std::vector<HealthGroup> groups;
  for (size_t t = 0; t < tp.ranks.size(); ++t) {
    HealthGroup g;
    g.task = static_cast<int>(t);
    for (const int r : tp.ranks[t])
      if (!s.eng->rank_permanently_dead(r)) g.ranks.push_back(r);
    if (!g.ranks.empty()) groups.push_back(std::move(g));
  }
  const bool spare = s.spares_left.load(std::memory_order_acquire) > 0;
  s.health->scan(cpi, groups, spare, s.ft.heal_shrink);
}

// The detect → recompute-once → escalate policy around one stage execution.
// `compute(attempt)` produces the stage output (and applies any injected
// flip); `verify()` checks the ABFT invariant over the current output.
// Returns false when the stage must escalate: both executions failed
// verification, and the caller falls back to its shed / stale machinery.
template <typename ComputeFn, typename VerifyFn>
bool run_checked(Comm& c, Shared& s, Task t, index_t cpi, ComputeFn&& compute,
                 VerifyFn&& verify) {
  const double c_start = WallTimer::now();
  compute(0);
  maybe_straggle(c, s, cpi, WallTimer::now() - c_start);
  if (!s.integ.enabled) return true;
  if (verify()) {
    s.integ_checks_passed.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  const double t_fail = WallTimer::now();
  s.integ_checks_failed.fetch_add(1, std::memory_order_relaxed);
  s.integ_recomputes.fetch_add(1, std::memory_order_relaxed);
  compute(1);
  const bool ok = verify();
  if (ok) {
    s.integ_repairs.fetch_add(1, std::memory_order_relaxed);
  } else {
    s.integ_checks_failed.fetch_add(1, std::memory_order_relaxed);
    s.integ_escalations.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.integ_events.push_back(IntegrityEvent{static_cast<int>(t), cpi, ok});
  }
  if (obs::tracing_enabled())
    obs::emit({ok ? "abft_repair" : "abft_escalate", "integrity", c.rank(),
               obs::kIntegrityTrack, static_cast<std::int64_t>(cpi), t_fail,
               WallTimer::now(), -1, -1});
  if (!ok) obs::flight_dump("integrity_escalation");
  return ok;
}

// Sink commit of one CFAR rank's report for `cpi` (a shed report carries no
// detections). The CPI completes once every live member of the CFAR group
// has committed, and the completion closes the overload-control loop:
// latency samples drive the SLO term, completions release throttled
// producers. Returns whether the CPI sheds — a dead CFAR peer forces it.
bool commit_report(Shared& s, const Topology& tp, index_t cpi, bool shed,
                   const std::vector<stap::Detection>& dets) {
  bool cpi_done = false;
  bool cpi_shed = false;
  double latency = 0.0;
  std::vector<index_t> retro;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    // Quorum completion: a permanently dead CFAR peer will never tick, so
    // the CPI completes on the live members alone — and must shed, since
    // the corpse's range slice is missing from the report. Post-shrink
    // epochs drop the corpse from the group, so live == group and
    // coverage is whole again. While the peer is merely dead-recoverable
    // (a pool spare will revive it and deliver its ticks) the full group
    // count stands.
    const int group = tp.count(Task::kCfar);
    int live = 0;
    for (int r = 0; r < group; ++r)
      live += s.eng->rank_permanently_dead(tp.rank_at(Task::kCfar, r)) ? 0
                                                                        : 1;
    if (live < group) {
      shed = true;
      // Sweep CPIs this rank already ticked at full group strength whose
      // last tick died with the peer: complete them as shed now, or the
      // admission backlog pins on completions that can never come.
      for (index_t j = 0; j < cpi; ++j) {
        const auto ji = static_cast<size_t>(j);
        if (s.completion[ji] > 0.0) continue;
        const Topology& tj = s.topo(j);
        int live_j = 0;
        for (int r = 0; r < tj.count(Task::kCfar); ++r)
          live_j +=
              s.eng->rank_permanently_dead(tj.rank_at(Task::kCfar, r)) ? 0
                                                                       : 1;
        if (s.cfar_done[ji] >= live_j && live_j > 0) {
          s.shed[ji] = 1;
          s.detections[ji].clear();
          s.completion[ji] = WallTimer::now();
          retro.push_back(j);
        }
      }
    }
    const auto i = static_cast<size_t>(cpi);
    // A shed CPI reports nothing: wipe contributions a peer banked before
    // this rank learned the CPI cannot complete whole (e.g. the dead CFAR
    // peer ticked here before dying mid-stream).
    if (shed) {
      s.shed[i] = 1;
      s.detections[i].clear();
    } else {
      s.detections[i].insert(s.detections[i].end(), dets.begin(), dets.end());
    }
    if (++s.cfar_done[i] >= live && s.completion[i] == 0.0) {
      const double done = WallTimer::now();
      s.completion[i] = done;
      cpi_done = true;
      cpi_shed = s.shed[i] != 0;
      latency = s.input_ready[i] > 0.0 ? done - s.input_ready[i] : 0.0;
    }
  }
  if (s.ctrl != nullptr) {
    if (cpi_done) s.ctrl->on_complete(cpi, latency, cpi_shed);
    for (const index_t j : retro) s.ctrl->on_complete(j, 0.0, true);
  }
  return shed;
}

/// Spare-rank resume request: re-enter the stream at `cpi` under a dead
/// rank's identity, restoring the serialized weight computers from `blob`
/// (empty for the stateless roles). `restored` fires once state is back
/// (recovery-stall measurement point).
struct Resume {
  index_t cpi = 0;
  std::string blob;
  std::function<void(index_t)> restored;
};

// ---------------------------------------------------------------------------
// The Fig.-10 stage driver
// ---------------------------------------------------------------------------
// Every task group runs the same cycle per CPI: receive (+unpack), compute,
// send (+pack), each phase timed. drive() owns everything the seven tasks
// share — the epoch barrier and role check, the t0..t3 stamps, the ABFT
// detect/recompute/escalate policy (run_checked: flip injection, straggle
// hook), the shed-marker fan-out along the task's Fig.-4 out-edges, phase
// spans, health samples and the phase accumulator — and calls the task's
// hooks over its own buffers:
//
//   admit(cy)             before t0 (Doppler: admission gate, policy tick)
//   recv(cy, ftr)         unpack this CPI's inputs; false = the CPI sheds
//   prepare(cy)           once at the start of the compute phase; false =
//                         serve the last output without computing
//   compute(cy, attempt)  produce the output (attempt 1 = ABFT recompute)
//   verify(cy)            the stage's ABFT invariant over that output
//   recover(cy)           after an escalation: true when a fallback output
//                         exists (the weight tasks' stale cache)
//   send(cy)              pack and send; for CFAR the sink commit
//
// A shed cycle sends markers instead of output on every out-edge; the sink
// has none, and its send commits the shed CPI. Every cycle emits its three
// spans and feeds the accumulator; health samples the cycles that
// delivered output. A stage frees the last cycle's cubes at the top of
// recv, before this cycle allocates its own: a cube allocated while its
// predecessor is still live cannot reuse that block, and the fresh pages
// it faults in made the Doppler ranks of a free-running pipeline drift
// out of step with the shared source more often.

// One Fig.-10 cycle as the driver hands it to a stage's hooks.
struct Cycle {
  index_t cpi;
  const Topology& tp;  // topology governing this CPI
  int me;              // this rank's index in its task group
  double t0 = 0.0;     // receive phase [t0, t1)
  double t1 = 0.0;
  bool shed = false;
};

// What every stage shares: its rank's comm endpoint, the run state, the
// sends (with byte accounting and digests) and the default hooks.
struct StageBase {
  Comm& c;
  Shared& s;
  std::uint64_t sent = 0;  // payload bytes sent for measured CPIs
  // Frame storage per out-edge: a block comes back to its edge's pool when
  // the consumer drops the frame, so a steady stream allocates nothing.
  std::array<comm::BufferPool, kNumPipelineEdges> pools{};

  // A frame of `n` elements of T for edge `e`, with room for the
  // end-to-end digest when ABFT is on. Pack into as<T>().first(n).
  template <typename T>
  comm::Buffer frame(SimEdge e, size_t n) {
    if (s.integ.enabled) n += digest_elems<T>();
    return pools[static_cast<size_t>(e)].take(n * sizeof(T));
  }

  // Send a packed frame on edge `e` to `dest` for consumer CPI `cpi`,
  // writing the digest into its reserved slot when ABFT is on.
  template <typename T>
  void send_frame(int dest, index_t cpi, SimEdge e, comm::Buffer&& buf) {
    std::span<T> all = buf.as<T>();
    const size_t n = all.size() - (s.integ.enabled ? digest_elems<T>() : 0);
    if (s.integ.enabled) {
      const std::uint64_t d = checksum_of(std::span<const T>(all.first(n)));
      std::memcpy(static_cast<void*>(all.data() + n), &d, sizeof d);
    }
    comm::FlowContext fc;
    const comm::FlowContext* flow = nullptr;
    if (obs::tracing_enabled()) {
      fc = flow_for(cpi, e);
      flow = &fc;
    }
    c.send(dest, tag_for(cpi, e), std::move(buf), flow);
    if (s.measured(cpi)) {
      sent += n * sizeof(T);
      s.edge_bytes[static_cast<size_t>(e)].fetch_add(
          n * sizeof(T), std::memory_order_relaxed);
    }
  }

  // A shed marker on edge `e` to every rank of its consumer task. The
  // consumer of a temporal (weight) edge is the next visit of the same
  // transmit position, which may lie past the end of the stream.
  void send_markers(const Cycle& cy, SimEdge e) {
    const index_t to = sim_edge_is_temporal(e)
                           ? cy.cpi + s.p.num_beam_positions
                           : cy.cpi;
    if (to >= s.n_cpis) return;
    const Task dst = sim_edge_dst(e);
    for (int r = 0; r < cy.tp.count(dst); ++r)
      c.send_marker(cy.tp.rank_at(dst, r), tag_for(to, e));
  }

  void admit(const Cycle&) {}
  bool prepare(const Cycle&) { return true; }
  bool recover(const Cycle&) { return false; }
  void finish() {}
};

// Runs `st` as task `t` from `begin` until the stream ends or a committed
// migration changes this rank's role; returns the first CPI it did not
// process (s.n_cpis when it ran to the end).
template <typename Stage>
index_t drive(Stage& st, Task t, index_t begin) {
  Comm& c = st.c;
  Shared& s = st.s;
  const bool sink = t == Task::kCfar;
  FtRecv ftr = make_ftr(c, s);
  PhaseAcc acc;
  index_t cpi = begin;
  for (; cpi < s.n_cpis; ++cpi) {
    const Topology& tp = s.barrier(c, cpi);
    const Topology::Role role = tp.role_of(c.rank());
    if (role.task != t) break;
    Cycle cy{cpi, tp, role.local};
    st.admit(cy);
    const std::uint64_t sent0 = st.sent;
    cy.t0 = WallTimer::now();
    ftr.begin();
    const bool received = st.recv(cy, ftr);
    cy.t1 = WallTimer::now();
    bool ok = received;
    if (received && st.prepare(cy))
      ok = run_checked(
               c, s, t, cpi, [&](int attempt) { st.compute(cy, attempt); },
               [&] { return st.verify(cy); }) ||
           st.recover(cy);
    const double t2 = received ? WallTimer::now() : cy.t1;
    cy.shed = !ok;
    if (cy.shed)
      for (int e = 0; e < kNumEdges; ++e)
        if (sim_edge_src(static_cast<SimEdge>(e)) == t)
          st.send_markers(cy, static_cast<SimEdge>(e));
    const bool delivers = !cy.shed || sink;
    if (delivers) st.send(cy);
    const double t3 = WallTimer::now();
    emit_phase_spans(c.rank(), t, cpi, cy.t0, cy.t1, t2, t3, st.sent - sent0);
    if (delivers) observe_health(c, s, t, cpi, cy.t0, cy.t1, t3);
    // Detector tick from the sink, not the coordinator: the pipelined
    // front can sprint arbitrarily far ahead of a straggler (and exit its
    // loop before the victim has min_samples), while the sink only reaches
    // CPI i after every upstream rank has sampled it — scans always score
    // mature statistics.
    if (sink && role.local == 0) health_scan(s, tp, cpi);
    if (s.measured(cpi)) {
      acc.recv += cy.t1 - cy.t0;
      acc.comp += t2 - cy.t1;
      acc.send += t3 - t2;
    }
  }
  st.finish();
  acc.commit(s, t, st.sent);
  return cpi;
}

// ---------------------------------------------------------------------------
// Task 0: Doppler filter processing (partitioned along K)
// ---------------------------------------------------------------------------
struct DopplerStage : StageBase {
  stap::DopplerFilter filter;
  OverloadController::Admission adm;
  std::shared_ptr<const cube::CpiCube> full;
  cube::CpiCube stag;
  index_t k0 = 0, kl = 0;  // this rank's range slab

  DopplerStage(Comm& c, Shared& s) : StageBase{c, s}, filter(s.p) {}

  // Admission gate (pacing, bounded queue, degradation ladder). The
  // decision is memoized: every Doppler rank gets the same answer, and it
  // is fixed before any frame of this CPI is sent.
  void admit(const Cycle& cy) {
    if (c.rank() == s.eng->coordinator_rank()) s.eng->policy_tick(c, cy.cpi);
    adm = s.source.admit(cy.cpi);
  }

  // "Receive": take the CPI from the radar feed. A CPI rejected at
  // admission (kShedInput) is never generated.
  bool recv(const Cycle& cy, FtRecv&) {
    stag = cube::CpiCube();
    if (cy.me == 0) {
      {
        std::lock_guard<std::mutex> lock(s.mu);
        s.input_ready[static_cast<size_t>(cy.cpi)] = cy.t0;
      }
      if (obs::tracing_enabled() && adm.level != DegradationLevel::kFull)
        obs::emit({degradation_level_name(adm.level), "overload", c.rank(),
                   obs::kFaultTrack, static_cast<std::int64_t>(cy.cpi), cy.t0,
                   cy.t0, static_cast<std::int64_t>(adm.level), -1});
    }
    if (!adm.admit) return false;
    k0 = cy.tp.part_k.offset(cy.me);
    kl = cy.tp.part_k.length(cy.me);
    full = s.source.get(cy.cpi, c.rank());
    return true;
  }

  // The filter reads this rank's range slab [k0, k0 + kl) in place.
  void compute(const Cycle& cy, int attempt) {
    stag = filter.filter(*full, k0, kl);
    maybe_flip(s, Task::kDopplerFilter, cy.cpi, c.rank(), attempt,
               float_view(stag));
  }
  bool verify(const Cycle&) {
    return filter.parseval_check(*full, stag, k0, s.integ.tolerance);
  }

  // Data collection + personalized sends (Figs. 6b, 8).
  void send(const Cycle& cy) {
    full.reset();
    const Topology& tp = cy.tp;
    const index_t j = s.p.num_channels;
    const index_t jj = s.p.num_staggered_channels();
    // Weight tasks: the training rows at one item's training cells inside
    // this slab, `nch` channels each.
    auto in_slab = [&](index_t cell) { return cell >= k0 && cell < k0 + kl; };
    auto rows_in_slab = [&](const std::vector<index_t>& cells) {
      return static_cast<size_t>(
          std::count_if(cells.begin(), cells.end(), in_slab));
    };
    auto pack_training = [&](cfloat*& out, const std::vector<index_t>& cells,
                             index_t bin, index_t nch) {
      for (const index_t cell : cells) {
        if (!in_slab(cell)) continue;
        for (index_t ch = 0; ch < nch; ++ch)
          *out++ = stag.at(cell - k0, ch, bin);
      }
    };
    // Training is suppressed on the frozen/stale rungs — kFrozenHard stops
    // feeding the hard recursion, kStaleWeights both weight tasks — and a
    // marker replaces the rows (the computer keeps its last state).
    if (adm.level >= DegradationLevel::kStaleWeights) {
      send_markers(cy, SimEdge::kDopToEasyWt);
    } else {
      const size_t rows = rows_in_slab(s.easy_cells);
      for (int r = 0; r < tp.count(Task::kEasyWeight); ++r) {
        const auto bins = slice(s.easy_bins, tp.part_ewt, r);
        auto buf = frame<cfloat>(SimEdge::kDopToEasyWt,
                                 bins.size() * rows * static_cast<size_t>(j));
        cfloat* out = buf.as<cfloat>().data();
        for (const index_t bin : bins) pack_training(out, s.easy_cells, bin, j);
        send_frame<cfloat>(tp.rank_at(Task::kEasyWeight, r), cy.cpi,
                           SimEdge::kDopToEasyWt, std::move(buf));
      }
    }
    if (adm.level >= DegradationLevel::kFrozenHard) {
      send_markers(cy, SimEdge::kDopToHardWt);
    } else {
      for (int r = 0; r < tp.count(Task::kHardWeight); ++r) {
        const auto units = slice(s.hard_units, tp.part_hwu, r);
        size_t n = 0;
        for (const auto& u : units)
          n += rows_in_slab(s.hard_cells[static_cast<size_t>(u.segment)]) *
               static_cast<size_t>(jj);
        auto buf = frame<cfloat>(SimEdge::kDopToHardWt, n);
        cfloat* out = buf.as<cfloat>().data();
        for (const auto& u : units)
          pack_training(out, s.hard_cells[static_cast<size_t>(u.segment)],
                        u.bin, jj);
        send_frame<cfloat>(tp.rank_at(Task::kHardWeight, r), cy.cpi,
                           SimEdge::kDopToHardWt, std::move(buf));
      }
    }
    // Beamforming: the full slab for the destination's bins, reorganized
    // to (bin, range, channel) — Fig. 8; the hard group gets both stagger
    // halves (2J channels).
    auto send_slab = [&](Task bf, const BlockPartition& part,
                         const std::vector<index_t>& bin_list, index_t nch,
                         SimEdge e) {
      for (int r = 0; r < tp.count(bf); ++r) {
        const auto bins = slice(bin_list, part, r);
        const size_t n = bins.size() * static_cast<size_t>(kl * nch);
        auto buf = frame<cfloat>(e, n);
        cube::gather_bins(stag, bins, nch, buf.as<cfloat>().first(n));
        send_frame<cfloat>(tp.rank_at(bf, r), cy.cpi, e, std::move(buf));
      }
    };
    send_slab(Task::kEasyBeamform, tp.part_ebf, s.easy_bins, j,
              SimEdge::kDopToEasyBf);
    send_slab(Task::kHardBeamform, tp.part_hbf, s.hard_bins, jj,
              SimEdge::kDopToHardBf);
  }
};

// ---------------------------------------------------------------------------
// Tasks 1/2: easy and hard weight computation
// ---------------------------------------------------------------------------
// The two weight computers behind one stage: the easy bins pool a training
// history, the hard (bin, segment) units update a recursive R.
void train(stap::EasyWeightComputer& wc, std::vector<MatrixCF>&& rows) {
  wc.push_training(std::move(rows));
}
void train(stap::HardWeightComputer& wc, std::vector<MatrixCF>&& rows) {
  wc.update(rows);
}
std::vector<MatrixCF> solve(const stap::EasyWeightComputer& wc) {
  return wc.compute().weights;
}
std::vector<MatrixCF> solve(const stap::HardWeightComputer& wc) {
  return wc.compute();
}

// The easy group partitions the easy bins, the hard group the bin-major
// (bin, segment) units; an "item" is one of those. Weights solved from
// CPI i serve the next visit of the same transmit position, i + positions
// (TD_{1,3} / TD_{2,4}), so beamforming of CPI i never waits on them.
template <typename Computer>
struct WeightStage : StageBase {
  static constexpr bool kHard =
      std::is_same_v<Computer, stap::HardWeightComputer>;
  static constexpr Task kTask = kHard ? Task::kHardWeight : Task::kEasyWeight;
  static constexpr Task kBf =
      kHard ? Task::kHardBeamform : Task::kEasyBeamform;
  static constexpr SimEdge kIn =
      kHard ? SimEdge::kDopToHardWt : SimEdge::kDopToEasyWt;
  static constexpr SimEdge kOut =
      kHard ? SimEdge::kHardWtToBf : SimEdge::kEasyWtToBf;

  // The weight and beamforming groups never migrate, so their partitions
  // are epoch-0 invariants; only the Doppler fan-in is resolved per CPI.
  const Topology& tp0;
  const index_t positions, nch;
  const index_t segs;  // items per beamforming bin
  index_t i0 = 0, il = 0;  // owned item range
  std::vector<const std::vector<index_t>*> cells;  // training cells per item
  // One computer per transmit position: training pools only same-azimuth
  // looks (paper §3).
  std::vector<Computer> computers;
  // Last good weights per transmit position: the stale-weights rung and
  // the ABFT escalation resend them without a solve.
  std::vector<std::optional<std::vector<MatrixCF>>> last;
  // Each Doppler rank's rows of each item's training block; recomputed
  // when a migration resizes the Doppler group.
  int rows_for_dops = -1;
  std::vector<std::vector<std::vector<index_t>>> rows_from;
  std::vector<MatrixCF> training, w;
  bool complete = false;  // this CPI's training block arrived whole
  bool solved = false;    // `w` holds this CPI's verified solve

  WeightStage(Comm& c, Shared& s, int me, const Resume* resume)
      : StageBase{c, s},
        tp0(s.topo(0)),
        positions(s.p.num_beam_positions),
        nch(kHard ? s.p.num_staggered_channels() : s.p.num_channels),
        segs(kHard ? s.p.num_segments : 1),
        last(static_cast<size_t>(positions)) {
    const BlockPartition& part = kHard ? tp0.part_hwu : tp0.part_ewt;
    i0 = part.offset(me);
    il = part.length(me);
    const auto items = [&] {
      if constexpr (kHard)
        return slice(s.hard_units, part, me);
      else
        return slice(s.easy_bins, part, me);
    }();
    for (const auto& item : items) {
      if constexpr (kHard)
        cells.push_back(&s.hard_cells[static_cast<size_t>(item.segment)]);
      else
        cells.push_back(&s.easy_cells);
    }
    for (index_t pos = 0; pos < positions; ++pos)
      computers.emplace_back(s.p, s.steering[static_cast<size_t>(pos)],
                             std::vector(items.begin(), items.end()));
    rows_from.resize(cells.size());
    if (resume != nullptr) {
      std::istringstream is(resume->blob);
      for (auto& wc : computers) wc.restore(is);
    } else {
      // Quiescent weights beamform the first visit of each position.
      for (index_t pos = 0; pos < positions && pos < s.n_cpis; ++pos)
        send_weights(solve(computers[static_cast<size_t>(pos)]), pos);
      save_checkpoint(0);
    }
  }

  bool recv(const Cycle& cy, FtRecv& ftr) {
    const int dops = cy.tp.count(Task::kDopplerFilter);
    if (dops != rows_for_dops) {
      rows_for_dops = dops;
      for (size_t i = 0; i < cells.size(); ++i) {
        rows_from[i].assign(static_cast<size_t>(dops), {});
        for (int d = 0; d < dops; ++d)
          rows_from[i][static_cast<size_t>(d)] =
              s.cell_positions_in_slab(*cells[i], d, cy.tp.part_k);
      }
    }
    training.clear();
    for (const auto* cl : cells)
      training.emplace_back(static_cast<index_t>(cl->size()), nch);
    complete = true;
    for (int d = 0; d < dops; ++d) {
      const int src = cy.tp.rank_at(Task::kDopplerFilter, d);
      const auto f = ftr.recv(src, tag_for(cy.cpi, kIn));
      if (!f) {
        complete = false;
        continue;
      }
      const auto buf = payload<cfloat>(ftr, s, src, *f, cy.cpi);
      size_t off = 0;
      for (size_t i = 0; i < cells.size(); ++i)
        for (const index_t row : rows_from[i][static_cast<size_t>(d)]) {
          PPSTAP_CHECK(off + static_cast<size_t>(nch) <= buf.size(),
                       "short training message");
          for (index_t ch = 0; ch < nch; ++ch)
            training[i](row, ch) = buf[off++];
        }
      PPSTAP_CHECK(off == buf.size(), "training message length");
    }
    // A shed training block skips the update, never the CPI: the previous
    // weights still flow downstream so beamforming never starves (degraded
    // adaptivity, not a stalled stream).
    return true;
  }

  // Fold the training into the position's computer (a shed block leaves
  // the forgetting state untouched; the frozen-hard rung arrives as a
  // training marker), then solve — or, on the stale-weights rung, resend
  // the position's last weights without solving.
  bool prepare(const Cycle& cy) {
    const auto pos = static_cast<size_t>(cy.cpi % positions);
    if (complete) train(computers[pos], std::move(training));
    solved = s.ctrl == nullptr ||
             s.ctrl->level_for(cy.cpi) < DegradationLevel::kStaleWeights ||
             !last[pos];
    return solved;
  }
  void compute(const Cycle& cy, int attempt) {
    w = solve(computers[static_cast<size_t>(cy.cpi % positions)]);
    maybe_flip_weights(s, kTask, cy.cpi, c.rank(), attempt, w);
  }
  bool verify(const Cycle&) {
    return weights_unit_norm(w, s.integ.tolerance);
  }
  // An escalated solve falls back to the position's last good weights, or
  // — with nothing trustworthy yet — to markers, so beamforming sheds.
  bool recover(const Cycle&) {
    solved = false;
    return true;
  }
  void send(const Cycle& cy) {
    auto& cache = last[static_cast<size_t>(cy.cpi % positions)];
    if (solved) cache = std::move(w);
    if (cache)
      send_weights(*cache, cy.cpi + positions);
    else
      send_markers(cy, kOut);
    save_checkpoint(cy.cpi + 1);
  }
  void finish() {
    std::lock_guard<std::mutex> lock(s.mu);
    for (const auto& wc : computers) s.numerics += wc.health();
  }

  // The owned items each beamforming rank needs (it owns `segs` items per
  // bin), for consumer CPI `for_cpi`.
  void send_weights(const std::vector<MatrixCF>& ws, index_t for_cpi) {
    if (for_cpi >= s.n_cpis) return;
    const BlockPartition& bf = kHard ? tp0.part_hbf : tp0.part_ebf;
    for (int r = 0; r < tp0.count(kBf); ++r) {
      const index_t lo = std::max(i0, bf.offset(r) * segs);
      const index_t hi =
          std::min(i0 + il, (bf.offset(r) + bf.length(r)) * segs);
      size_t n = 0;
      for (index_t i = lo; i < hi; ++i)
        n += static_cast<size_t>(ws[static_cast<size_t>(i - i0)].size());
      auto buf = frame<cfloat>(kOut, n);
      cfloat* out = buf.as<cfloat>().data();
      for (index_t i = lo; i < hi; ++i) {
        const auto& wm = ws[static_cast<size_t>(i - i0)];
        out = std::copy_n(wm.data(), wm.size(), out);
      }
      send_frame<cfloat>(tp0.rank_at(kBf, r), for_cpi, kOut, std::move(buf));
    }
  }

  // Checkpoint the computers after every CPI so a spare can resume at
  // exactly `next_cpi` (keyed by the global rank the spare assumes).
  void save_checkpoint(index_t next_cpi) {
    if (s.ft.spares == 0) return;
    std::ostringstream os;
    for (const auto& wc : computers) wc.save(os);
    std::lock_guard<std::mutex> lock(s.mu);
    auto& ck = s.checkpoints[c.rank()];
    ck.next_cpi = next_cpi;
    ck.blob = os.str();
  }
};

// ---------------------------------------------------------------------------
// Tasks 3/4: beamforming (partitioned along easy/hard bins)
// ---------------------------------------------------------------------------
// A spare resuming mid-stream starts with a cold weight cache, so an
// in-flight CPI whose weights were already consumed falls back to the shed
// path rather than wedging.
struct BeamformStage : StageBase {
  const bool hard;
  // Weight/BF groups never migrate: epoch-0 partitions are invariant here;
  // the Doppler fan-in and PC fan-out are resolved per CPI.
  const Topology& tp0;
  const BlockPartition& part;
  const std::span<const index_t> bins;
  const index_t b0, bl, nch;  // owned bin positions [b0, b0 + bl)
  const index_t segs;  // weight items per bin
  index_t active = 0;  // beams formed this CPI
  // Stale-weight fallback (shedding only): the last complete weight set
  // received for each transmit position.
  std::vector<std::optional<stap::WeightSet>> wcache;
  stap::WeightSet w;
  // The (bin, range, channel) input: read in place from the one Doppler
  // frame when a single Doppler rank covers every range cell, else
  // assembled from the Doppler ranks' slabs.
  comm::Frame slab;
  cube::CpiCube assembled;
  cube::CubeView<cfloat> data;
  cube::CpiCube out;

  BeamformStage(Comm& c, Shared& s, int me, bool hard_in)
      : StageBase{c, s},
        hard(hard_in),
        tp0(s.topo(0)),
        part(hard ? tp0.part_hbf : tp0.part_ebf),
        bins(slice(hard ? s.hard_bins : s.easy_bins, part, me)),
        b0(part.offset(me)),
        bl(part.length(me)),
        nch(hard ? s.p.num_staggered_channels() : s.p.num_channels),
        segs(hard ? s.p.num_segments : 1),
        wcache(static_cast<size_t>(s.p.num_beam_positions)) {}

  bool recv(const Cycle& cy, FtRecv& ftr) {
    slab = {};
    assembled = cube::CpiCube();
    data = {};
    out = cube::CpiCube();
    bool shed = false;
    // Weights for this CPI, sent by the weight task while it processed the
    // previous visit of this transmit position (the temporal dependency).
    const Task wt_task = hard ? Task::kHardWeight : Task::kEasyWeight;
    const BlockPartition& wpart = hard ? tp0.part_hwu : tp0.part_ewt;
    const index_t m = s.p.num_beams;
    w.bins.assign(bins.begin(), bins.end());
    w.weights.assign(static_cast<size_t>(bl * segs), MatrixCF());
    bool weights_complete = true;
    for (int r = 0; r < tp0.count(wt_task); ++r) {
      const int src = tp0.rank_at(wt_task, r);
      const auto f = ftr.recv(
          src, tag_for(cy.cpi,
                       hard ? SimEdge::kHardWtToBf : SimEdge::kEasyWtToBf));
      if (!f) {
        weights_complete = false;
        continue;
      }
      const auto buf = payload<cfloat>(ftr, s, src, *f, cy.cpi);
      size_t off = 0;
      const index_t lo = std::max(wpart.offset(r), b0 * segs);
      const index_t hi =
          std::min(wpart.offset(r) + wpart.length(r), (b0 + bl) * segs);
      for (index_t pos = lo; pos < hi; ++pos) {
        MatrixCF wm(nch, m);
        PPSTAP_CHECK(off + static_cast<size_t>(wm.size()) <= buf.size(),
                     "short weight message");
        std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(off),
                    static_cast<size_t>(wm.size()), wm.data());
        off += static_cast<size_t>(wm.size());
        w.weights[static_cast<size_t>(pos - b0 * segs)] = std::move(wm);
      }
      PPSTAP_CHECK(off == buf.size(), "weight message length");
    }
    if (ftr.active) {
      auto& cache =
          wcache[static_cast<size_t>(cy.cpi % s.p.num_beam_positions)];
      if (weights_complete)
        cache = w;  // refresh the fallback for this position
      else if (cache) {
        w = *cache;  // beamform with the position's last known weights
        ftr.cover();
      } else
        shed = true;  // nothing to beamform with yet
    }

    // Doppler data in the bin-major (bin, range, channel) layout of Fig. 8.
    // A frame spanning every range cell already is that cube.
    const SimEdge e = hard ? SimEdge::kDopToHardBf : SimEdge::kDopToEasyBf;
    const index_t k = s.p.num_range;
    for (int d = 0; d < cy.tp.count(Task::kDopplerFilter); ++d) {
      const int src = cy.tp.rank_at(Task::kDopplerFilter, d);
      auto f = ftr.recv(src, tag_for(cy.cpi, e));
      if (!f) {
        shed = true;
        continue;
      }
      const auto buf = payload<cfloat>(ftr, s, src, *f, cy.cpi);
      const index_t dk0 = cy.tp.part_k.offset(d);
      const index_t dkl = cy.tp.part_k.length(d);
      PPSTAP_CHECK(static_cast<index_t>(buf.size()) == bl * dkl * nch,
                   "doppler data message length");
      if (buf.empty()) continue;
      if (dkl == k) {
        data = cube::CubeView<cfloat>({bl, k, nch}, buf.data());
        slab = std::move(*f);
        continue;
      }
      if (assembled.size() == 0) {
        assembled = cube::CpiCube(bl, k, nch);
        data = assembled;
      }
      size_t off = 0;
      for (index_t b = 0; b < bl; ++b)
        for (index_t kk = 0; kk < dkl; ++kk) {
          std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(off),
                      static_cast<size_t>(nch),
                      assembled.line(b, dk0 + kk).begin());
          off += static_cast<size_t>(nch);
        }
    }
    return !shed;
  }

  // The reduced-beams rungs shrink the beamform work; skipped beams stay
  // zero in the output cube, so CFAR simply reports nothing there.
  void compute(const Cycle& cy, int attempt) {
    const auto& p = s.p;
    active = s.ctrl != nullptr
                 ? active_beams_for(s.ctrl->level_for(cy.cpi), p.num_beams)
                 : p.num_beams;
    out = hard ? stap::hard_beamform(data, w, p, active)
               : stap::easy_beamform(data, w, p, active);
    maybe_flip(s, hard ? Task::kHardBeamform : Task::kEasyBeamform, cy.cpi,
               c.rank(), attempt, float_view(out));
  }
  bool verify(const Cycle&) {
    return hard ? stap::hard_beamform_check(data, w, s.p, out, active,
                                            s.integ.tolerance)
                : stap::easy_beamform_check(data, w, s.p, out, active,
                                            s.integ.tolerance);
  }

  // Route each bin's M x K block to the pulse-compression owner of its
  // *global* Doppler bin. The input frame goes back to the Doppler rank's
  // pool first, so its next CPI can reuse the block.
  void send(const Cycle& cy) {
    slab = {};
    const Topology& tp = cy.tp;
    const SimEdge e = hard ? SimEdge::kHardBfToPc : SimEdge::kEasyBfToPc;
    const auto mk = static_cast<size_t>(s.p.num_beams * s.p.num_range);
    for (int r = 0; r < tp.count(Task::kPulseCompression); ++r) {
      const index_t g0 = tp.part_pc.offset(r);
      const index_t g1 = g0 + tp.part_pc.length(r);
      const auto mine = std::count_if(
          bins.begin(), bins.end(),
          [&](index_t g) { return g >= g0 && g < g1; });
      auto buf = frame<cfloat>(e, static_cast<size_t>(mine) * mk);
      cfloat* dst = buf.as<cfloat>().data();
      for (index_t b = 0; b < bl; ++b) {
        const index_t gbin = bins[static_cast<size_t>(b)];
        if (gbin >= g0 && gbin < g1)
          dst = std::copy_n(&out.at(b, 0, 0), mk, dst);
      }
      send_frame<cfloat>(tp.rank_at(Task::kPulseCompression, r), cy.cpi, e,
                         std::move(buf));
    }
  }
};

// ---------------------------------------------------------------------------
// Task 5: pulse compression (partitioned along all Doppler bins)
// ---------------------------------------------------------------------------
struct PulseCompressionStage : StageBase {
  // The beamforming groups never migrate: their partitions and rank lists
  // are epoch-0 invariants. This rank's own bin span is per CPI.
  const Topology& tp0;
  stap::PulseCompressor compressor;
  index_t g0 = 0, gl = 0;  // owned global bins [g0, g0 + gl)
  index_t active = 0;      // beams formed this CPI
  cube::CpiCube bf;
  cube::RealCube power;
  std::vector<double> row_energy;

  PulseCompressionStage(Comm& c, Shared& s)
      : StageBase{c, s}, tp0(s.topo(0)), compressor(s.p, s.replica) {}

  // Both beamforming groups' frames, unpacked straight into this rank's
  // (bin, beam, range) cube.
  bool recv(const Cycle& cy, FtRecv& ftr) {
    bf = cube::CpiCube();
    power = cube::RealCube();
    const auto mk = static_cast<size_t>(s.p.num_beams * s.p.num_range);
    g0 = cy.tp.part_pc.offset(cy.me);
    gl = cy.tp.part_pc.length(cy.me);
    bf = cube::CpiCube(gl, s.p.num_beams, s.p.num_range);
    bool complete = true;
    for (const bool hard : {false, true}) {
      const Task bf_task = hard ? Task::kHardBeamform : Task::kEasyBeamform;
      const SimEdge e = hard ? SimEdge::kHardBfToPc : SimEdge::kEasyBfToPc;
      const BlockPartition& part = hard ? tp0.part_hbf : tp0.part_ebf;
      for (int r = 0; r < tp0.count(bf_task); ++r) {
        const int src = tp0.rank_at(bf_task, r);
        const auto f = ftr.recv(src, tag_for(cy.cpi, e));
        if (!f) {
          complete = false;
          continue;
        }
        const auto buf = payload<cfloat>(ftr, s, src, *f, cy.cpi);
        size_t off = 0;
        for (const index_t gbin :
             slice(hard ? s.hard_bins : s.easy_bins, part, r)) {
          if (gbin < g0 || gbin >= g0 + gl) continue;
          PPSTAP_CHECK(off + mk <= buf.size(), "short beamformed message");
          std::copy_n(buf.begin() + static_cast<std::ptrdiff_t>(off), mk,
                      &bf.at(gbin - g0, 0, 0));
          off += mk;
        }
        PPSTAP_CHECK(off == buf.size(), "beamformed message length");
      }
    }
    return complete;
  }

  void compute(const Cycle& cy, int attempt) {
    const index_t m = s.p.num_beams;
    active = s.ctrl != nullptr ? active_beams_for(s.ctrl->level_for(cy.cpi), m)
                               : m;
    power = compressor.compress(bf, active,
                                s.integ.enabled ? &row_energy : nullptr);
    maybe_flip(s, Task::kPulseCompression, cy.cpi, c.rank(), attempt,
               float_view(power));
  }
  bool verify(const Cycle&) {
    return stap::pc_energy_check(power, row_energy, active,
                                 s.integ.tolerance);
  }

  void send(const Cycle& cy) {
    const Topology& tp = cy.tp;
    const index_t mk = s.p.num_beams * s.p.num_range;
    for (int r = 0; r < tp.count(Task::kCfar); ++r) {
      const index_t c0 = tp.part_cfar.offset(r);
      const index_t lo = std::max(g0, c0);
      const index_t hi = std::min(g0 + gl, c0 + tp.part_cfar.length(r));
      const auto n = static_cast<size_t>(std::max<index_t>(0, hi - lo) * mk);
      auto buf = frame<float>(SimEdge::kPcToCfar, n);
      if (n > 0)
        std::copy_n(&power.at(lo - g0, 0, 0), n, buf.as<float>().data());
      send_frame<float>(tp.rank_at(Task::kCfar, r), cy.cpi,
                        SimEdge::kPcToCfar, std::move(buf));
    }
  }
};

// ---------------------------------------------------------------------------
// Task 6: CFAR (partitioned along all Doppler bins); pipeline sink
// ---------------------------------------------------------------------------
struct CfarStage : StageBase {
  index_t c0 = 0, cl = 0;  // owned global bins [c0, c0 + cl)
  std::vector<index_t> my_bins;
  // The (bin, beam, range) power cube: read in place from a frame that
  // holds every owned bin (one pulse-compression rank covering them all),
  // else assembled from the pulse-compression ranks' slices.
  comm::Frame held;
  cube::RealCube assembled;
  cube::CubeView<float> power;
  std::vector<stap::Detection> dets;

  CfarStage(Comm& c, Shared& s) : StageBase{c, s} {}

  bool recv(const Cycle& cy, FtRecv& ftr) {
    const Topology& tp = cy.tp;
    const index_t m = s.p.num_beams, k = s.p.num_range;
    c0 = tp.part_cfar.offset(cy.me);
    cl = tp.part_cfar.length(cy.me);
    held = {};
    assembled = cube::RealCube();
    power = {};
    my_bins.resize(static_cast<size_t>(cl));
    for (index_t i = 0; i < cl; ++i) my_bins[static_cast<size_t>(i)] = c0 + i;
    dets.clear();
    bool complete = true;
    for (int r = 0; r < tp.count(Task::kPulseCompression); ++r) {
      const index_t g0 = tp.part_pc.offset(r);
      const index_t lo = std::max(c0, g0);
      const index_t hi = std::min(c0 + cl, g0 + tp.part_pc.length(r));
      const int src = tp.rank_at(Task::kPulseCompression, r);
      auto f = ftr.recv(src, tag_for(cy.cpi, SimEdge::kPcToCfar));
      if (!f) {
        complete = false;
        continue;
      }
      const auto buf = payload<float>(ftr, s, src, *f, cy.cpi);
      PPSTAP_CHECK(static_cast<index_t>(buf.size()) ==
                       std::max<index_t>(0, hi - lo) * m * k,
                   "power message length");
      if (buf.empty()) continue;
      if (hi - lo == cl) {
        power = cube::CubeView<float>({cl, m, k}, buf.data());
        held = std::move(*f);
        continue;
      }
      if (assembled.size() == 0) {
        assembled = cube::RealCube(cl, m, k);
        power = assembled;
      }
      std::copy(buf.begin(), buf.end(), &assembled.at(lo - c0, 0, 0));
    }
    return complete;
  }

  void compute(const Cycle& cy, int attempt) {
    dets = stap::cfar_detect(power, my_bins, s.p);
    maybe_flip_detections(s, cy.cpi, c.rank(), attempt, dets);
  }
  bool verify(const Cycle&) {
    return stap::verify_detections(dets, power, my_bins, s.p);
  }

  // The sink has no downstream send: its "send" is the report commit. A
  // shed CPI — incomplete power data, or a persistently corrupt report the
  // ABFT check refused — reports no detections; the sink ledgers the drop
  // instead of stalling the stream or publishing wrong detections.
  void send(const Cycle& cy) {
    held = {};
    if (commit_report(s, cy.tp, cy.cpi, cy.shed, dets) &&
        obs::tracing_enabled())
      obs::emit({"shed_cpi", "fault", c.rank(), obs::kFaultTrack,
                 static_cast<std::int64_t>(cy.cpi), cy.t0, cy.t1, -1, -1});
  }
};

// ---------------------------------------------------------------------------
// Role dispatch
// ---------------------------------------------------------------------------
// Runs this rank's `role` from `cpi`, returning the first CPI it did not
// process as that role. `resume` (a spare that assumed a dead rank's
// identity) restores the weight state before re-entering the stream.
index_t run_stage(Comm& c, Shared& s, Topology::Role role, index_t cpi,
                  const Resume* resume) {
  auto go = [&](auto&& st) {
    if (resume != nullptr && resume->restored) resume->restored(cpi);
    return drive(st, role.task, cpi);
  };
  switch (role.task) {
    case Task::kDopplerFilter:
      return go(DopplerStage(c, s));
    case Task::kEasyWeight:
      return go(WeightStage<stap::EasyWeightComputer>(c, s, role.local, resume));
    case Task::kHardWeight:
      return go(WeightStage<stap::HardWeightComputer>(c, s, role.local, resume));
    case Task::kEasyBeamform:
      return go(BeamformStage(c, s, role.local, /*hard=*/false));
    case Task::kHardBeamform:
      return go(BeamformStage(c, s, role.local, /*hard=*/true));
    case Task::kPulseCompression:
      return go(PulseCompressionStage(c, s));
    case Task::kCfar:
      return go(CfarStage(c, s));
  }
  return s.n_cpis;
}

// Runs whatever tasks this rank's topology role demands from `cpi` to the
// end of the stream. A committed migration that changes the role hands the
// CPI back here and the new task's stage re-enters at it; the weight and
// beamforming groups never change role. Shared by the normal per-rank body
// (cpi 0) and by a spare resuming under a dead rank's identity.
void run_roles(Comm& c, Shared& s, index_t cpi,
               const Resume* resume = nullptr) {
  const int rank = c.rank();
  while (cpi < s.n_cpis) {
    const Topology::Role role = s.topo(cpi).role_of(rank);
    PPSTAP_CHECK(role.local >= 0, "rank not assigned to any task");
    cpi = run_stage(c, s, role, cpi, std::exchange(resume, nullptr));
  }
  // Last CFAR rank (under the final topology) out releases idle spares
  // from their standby loops. Only ranks whose *final* role is CFAR count:
  // a rank migrating away mid-stream must not tick the counter, and a
  // revived CFAR rank ticks in place of the one that died.
  const Topology& tf = s.topo(s.n_cpis - 1);
  if (tf.role_of(rank).task == Task::kCfar) {
    std::lock_guard<std::mutex> lock(s.mu);
    if (++s.cfar_ranks_finished == tf.count(Task::kCfar))
      s.stream_done.store(true, std::memory_order_release);
  }
}

// ---------------------------------------------------------------------------
// Spare pool: hot standby for every pipeline role
// ---------------------------------------------------------------------------
// Each pool member polls for a claimed-recoverable death until the stream
// drains, then assumes the dead rank's identity and mailbox (healing state
// machine: detect -> claim -> restore -> re-enter -> report). A weight rank
// resumes from its per-CPI checkpoint at exactly the CPI it would have
// processed next; a stateless rank (Doppler / beamform / pulse compression
// / CFAR) re-enters its role at the dead rank's frozen progress CPI — any
// inputs the dead rank had already consumed for that CPI are re-driven by
// the deadline/shed machinery, so the in-flight CPI either completes
// bit-exactly (mailbox intact) or sheds cleanly. Downstream ranks never
// notice beyond the recovery stall (paper §6's reallocation stall, measured
// here per takeover as MTTR).
void run_spare(comm::World& world, Comm& c, Shared& s) {
  // Standby polling climbs a spin -> yield -> sleep ladder instead of
  // waking at a fixed interval: an idle spare costs (almost) nothing while
  // a death early in the stream is still claimed promptly.
  Backoff bo(s.ft.death_poll_seconds);
  while (!s.stream_done.load(std::memory_order_acquire)) {
    std::optional<int> dead;
    try {
      dead = world.wait_for_death(bo.next_timeout());
    } catch (const Error&) {
      s.spare_wakeups.store(bo.wakeups(), std::memory_order_relaxed);
      return;  // world aborted while standing by
    }
    if (!dead) {
      bo.idle();
      continue;
    }
    bo.reset();
    s.spare_wakeups.store(bo.wakeups(), std::memory_order_relaxed);

    const double t_death = world.death_time(*dead);

    // Resolve the dead rank's role at its frozen progress point (the
    // top-of-loop store a dead rank can never advance past).
    const index_t at = std::max<index_t>(0, s.eng->progress_of(*dead));
    const Topology::Role role = s.topo(at).role_of(*dead);
    PPSTAP_CHECK(role.local >= 0, "dead rank not in the topology");

    Resume resume{at, {}, {}};
    if (role.task == Task::kEasyWeight || role.task == Task::kHardWeight) {
      std::lock_guard<std::mutex> lock(s.mu);
      auto it = s.checkpoints.find(*dead);
      PPSTAP_CHECK(it != s.checkpoints.end(),
                   "no checkpoint for the dead rank");
      resume.cpi = it->second.next_cpi;
      resume.blob = it->second.blob;
    }

    c.take_over(*dead);
    // A quarantined straggler's death is attributed to the monitor, and
    // the revival clears its eviction request and statistics — the rank id
    // now names healthy replacement hardware, so per-rank slowdown rules
    // keyed on the old identity no longer apply.
    const bool was_quarantined =
        s.health != nullptr && s.health->was_quarantined(*dead);
    if (s.health != nullptr) s.health->on_revived(*dead);
    // This claim consumed one pool member. Whoever takes the pool to zero
    // clears every recoverable flag (the taken-over id included — the
    // revived rank is alive again, so the flag only governs a *repeat*
    // death) so any further death surfaces to receivers as a prompt
    // dead-peer status — the CPI sheds and the driver ledgers an uncovered
    // failure or the shrink path re-plans — instead of parking them on a
    // recovery wait that nobody will ever satisfy.
    if (s.spares_left.fetch_sub(1, std::memory_order_acq_rel) - 1 <= 0)
      for (int g = 0; g < s.a.total(); ++g) world.set_recoverable(g, false);

    resume.restored = [&s, &c, dead = *dead, task = role.task, t_death,
                       was_quarantined](index_t cpi) {
      const double t_up = WallTimer::now();
      {
        std::lock_guard<std::mutex> lock(s.mu);
        s.failovers.push_back(FailoverEvent{
            dead, static_cast<int>(task), cpi, t_up - t_death});
        HealingEvent ev;
        ev.rank = dead;
        ev.task = static_cast<int>(task);
        ev.mechanism = was_quarantined ? "quarantine" : "spare";
        ev.resume_cpi = cpi;
        ev.mttr_seconds = t_up - t_death;
        s.healing.push_back(ev);
      }
      if (obs::tracing_enabled())
        obs::emit({"heal_spare", "fault", c.rank(), obs::kFaultTrack,
                   static_cast<std::int64_t>(cpi), t_death, t_up, -1, -1});
      obs::flight_dump("failover");
    };
    run_roles(c, s, resume.cpi, &resume);
    return;  // each pool member covers one failure
  }
  s.spare_wakeups.store(bo.wakeups(), std::memory_order_relaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

ParallelStapPipeline::ParallelStapPipeline(const stap::StapParams& p,
                                           const NodeAssignment& assignment,
                                           linalg::MatrixCF steering,
                                           std::vector<cfloat> replica)
    : ParallelStapPipeline(
          p, assignment,
          std::vector<linalg::MatrixCF>(
              static_cast<size_t>(p.num_beam_positions), steering),
          std::move(replica)) {}

ParallelStapPipeline::ParallelStapPipeline(
    const stap::StapParams& p, const NodeAssignment& assignment,
    std::vector<linalg::MatrixCF> steering_per_position,
    std::vector<cfloat> replica)
    : p_(p),
      assign_(assignment),
      steering_(std::move(steering_per_position)),
      replica_(std::move(replica)) {
  p_.validate();
  assign_.validate(p_);
  PPSTAP_REQUIRE(static_cast<index_t>(steering_.size()) ==
                     p_.num_beam_positions,
                 "one steering matrix per transmit beam position expected");
  for (const auto& s : steering_)
    PPSTAP_REQUIRE(s.rows() == p_.num_channels && s.cols() == p_.num_beams,
                   "steering matrix must be J x M");
}

PipelineResult ParallelStapPipeline::run(
    const synth::ScenarioGenerator& scenario, index_t num_cpis,
    index_t warmup, index_t cooldown) {
  PPSTAP_REQUIRE(num_cpis > warmup + cooldown,
                 "need at least one measured CPI");
  PPSTAP_REQUIRE(scenario.params().num_range == p_.num_range &&
                     scenario.params().num_channels == p_.num_channels &&
                     scenario.params().num_pulses == p_.num_pulses,
                 "scenario dimensions must match STAP parameters");

  // Effective params for this run: the overload config may tighten the QR
  // conditioning threshold without mutating the pipeline object.
  stap::StapParams params = p_;
  if (ov_.enabled && ov_.condition_threshold > 0.0)
    params.condition_threshold = ov_.condition_threshold;
  // The integrity layer arms the weight-path QR residual gate at the same
  // tolerance as the pipeline-level invariants.
  if (integ_.enabled) params.abft_tolerance = integ_.tolerance;

  CpiSource source(scenario);
  Shared s{params,  assign_, steering_, replica_, source,
           num_cpis, warmup,  cooldown};
  s.easy_bins = p_.easy_bins();
  s.hard_bins = p_.hard_bins();
  s.easy_cells = stap::easy_training_cells(p_);
  for (index_t seg = 0; seg < p_.num_segments; ++seg)
    s.hard_cells.push_back(stap::hard_training_cells(p_, seg));
  s.hard_units = stap::HardWeightComputer::units_for_bins(
      p_, std::span<const index_t>(s.hard_bins));
  s.input_ready.assign(static_cast<size_t>(num_cpis), 0.0);
  s.completion.assign(static_cast<size_t>(num_cpis), 0.0);
  s.cfar_done.assign(static_cast<size_t>(num_cpis), 0);
  s.detections.assign(static_cast<size_t>(num_cpis), {});
  s.ft = ft_;
  s.shed.assign(static_cast<size_t>(num_cpis), 0);
  s.integ = integ_;
  s.plan = plan_;

  // Gray-failure detector: shared by every rank thread through Shared.
  // Constructed unconditionally (cheap), wired only when enabled so the
  // disabled path costs nothing per CPI.
  HealthMonitor monitor(hc_, assign_.total() + ft_.spares);
  if (hc_.enabled) s.health = &monitor;

  // The controller lives on the driver's stack for the run; every rank
  // shares it through Shared, and the source gates admission on it.
  std::optional<OverloadController> ctrl;
  if (ov_.enabled) {
    ctrl.emplace(ov_, num_cpis);
    s.ctrl = &*ctrl;
    source.set_overload_controller(&*ctrl);
  }
  // The front end runs ahead from here: CPI 0 is generated while the
  // World, the engines and the weight stages are set up.
  source.start(num_cpis);

  if (obs::tracing_enabled()) {
    for (int t = 0; t < stap::kNumTasks; ++t)
      obs::set_track_name(t, stap::task_name(static_cast<stap::Task>(t)));
    if (ft_.any() || plan_ != nullptr || ov_.enabled)
      obs::set_track_name(obs::kFaultTrack, "fault");
    if (integ_.enabled)
      obs::set_track_name(obs::kIntegrityTrack, "integrity");
  }

  // Extra ranks beyond the assignment form the spare pool; they stay idle
  // unless a recoverable rank dies. While the pool holds at least one
  // member every topology rank is recoverable — the pool is universal, any
  // role can be assumed (weight state from its per-CPI checkpoint, the
  // stateless roles from the dead rank's frozen progress point).
  comm::World world(assign_.total() + ft_.spares);
  world.set_fault_plan(plan_);
  s.spares_left.store(ft_.spares, std::memory_order_relaxed);
  if (ft_.spares > 0)
    for (int g = 0; g < assign_.total(); ++g) world.set_recoverable(g);

  // The migration engine is always installed: with elastic disabled and no
  // forced migrations it never leaves epoch 0 and every topo(cpi) lookup is
  // the initial layout. The spare rank (one past assign_.total()) is not
  // part of any topology and never participates in a barrier.
  ElasticEngine eng(&world, params, Topology::initial(params, assign_), el_,
                    num_cpis);
  s.eng = &eng;
  if (s.ctrl != nullptr && el_.any())
    s.ctrl->set_elastic_assist(
        [&eng] { return eng.request_overload_assist(); });
  // Pool-exhausted fallback: a permanently dead rank's group shrinks to
  // the survivors through the quiesce/re-plan/commit protocol. The commit
  // callback reports the healing event (MTTR = death to epoch commit) and
  // tells the overload controller capacity dropped.
  if (ft_.heal_shrink)
    eng.set_shrink(true, [&world, &s](int rank, int task, index_t begin_cpi,
                                      double commit_time) {
      const double t_death = world.death_time(rank);
      {
        std::lock_guard<std::mutex> lock(s.mu);
        HealingEvent ev;
        ev.rank = rank;
        ev.task = task;
        ev.mechanism = s.health != nullptr && s.health->was_quarantined(rank)
                           ? "quarantine"
                           : "shrink";
        ev.resume_cpi = begin_cpi;
        ev.mttr_seconds = t_death > 0.0 ? commit_time - t_death : 0.0;
        s.healing.push_back(ev);
      }
      if (s.ctrl != nullptr) s.ctrl->note_capacity_loss();
      if (obs::tracing_enabled())
        obs::emit({"heal_shrink", "fault", rank, obs::kFaultTrack,
                   static_cast<std::int64_t>(begin_cpi),
                   t_death > 0.0 ? t_death : commit_time, commit_time, -1,
                   -1});
      obs::flight_dump("shrink");
    });

  world.run([&](Comm& c) {
    if (c.rank() >= s.a.total()) return run_spare(world, c, s);
    run_roles(c, s, 0);
  });

  // --- self-healing post-pass -----------------------------------------------
  // A sink-side death can leave a CPI permanently incomplete: its cfar_done
  // counter never reaches the group size, so completion stays zero even
  // though the stream moved on. Account every such CPI as shed (no CPI is
  // ever silently lost — it is either completed or ledgered) and suppress
  // its partial detections, exactly like any other shed.
  bool any_rank_dead = false;
  for (int g = 0; g < assign_.total(); ++g)
    any_rank_dead |= world.rank_dead(g);
  if (any_rank_dead) {
    for (index_t cpi = 0; cpi < num_cpis; ++cpi) {
      const auto i = static_cast<size_t>(cpi);
      if (s.completion[i] == 0.0) {
        s.shed[i] = 1;
        s.detections[i].clear();
      }
    }
  }

  // --- assemble the result --------------------------------------------------
  PipelineResult result;
  result.detections = std::move(s.detections);
  for (auto& dets : result.detections)
    std::sort(dets.begin(), dets.end(), [](const auto& a, const auto& b) {
      return std::tie(a.doppler_bin, a.beam, a.range) <
             std::tie(b.doppler_bin, b.beam, b.range);
    });

  for (int t = 0; t < stap::kNumTasks; ++t) {
    const auto ranks = static_cast<double>(s.timing_ranks[static_cast<size_t>(t)]);
    // A task can legitimately end the run with zero contributions when its
    // every rank died uncovered (killed before committing its phase
    // accumulator, with the spare already spent): leave its timing zero.
    if (ranks <= 0) {
      const Topology& tf = s.topo(s.n_cpis - 1);
      bool any_dead = false;
      for (int r = 0; r < tf.count(static_cast<Task>(t)); ++r)
        any_dead |= world.rank_dead(tf.rank_at(static_cast<Task>(t), r));
      PPSTAP_CHECK(any_dead, "no timing contributions for a live task");
      continue;
    }
    result.timing[static_cast<size_t>(t)] = TaskTiming{
        s.timing_sum[static_cast<size_t>(t)].recv / ranks,
        s.timing_sum[static_cast<size_t>(t)].comp / ranks,
        s.timing_sum[static_cast<size_t>(t)].send / ranks};
    result.bytes_sent_per_cpi[static_cast<size_t>(t)] =
        static_cast<double>(s.bytes_sent[static_cast<size_t>(t)]) /
        static_cast<double>(s.measured_count());
  }

  double gap_sum = 0.0;
  int gap_count = 0;
  double latency_sum = 0.0;
  int latency_count = 0;
  // Latency histogram: exponential buckets from 10 µs to ~1000 s cover
  // every regime from the small-test pipelines to the full paper runs.
  obs::Histogram latency_hist(
      obs::Histogram::exponential_bounds(1e-5, 1e3, 1.35));
  for (index_t cpi = 0; cpi < num_cpis; ++cpi) {
    if (!s.measured(cpi)) continue;
    const auto i = static_cast<size_t>(cpi);
    if (cpi > 0 && s.completion[i - 1] > 0.0) {
      gap_sum += s.completion[i] - s.completion[i - 1];
      ++gap_count;
    }
    // A shed CPI still completed (its gap counts toward throughput — the
    // stream kept moving) but produced no detections, so its latency is
    // not a report latency and is excluded from the averages.
    if (s.shed[i]) continue;
    const double lat = s.completion[i] - s.input_ready[i];
    result.per_cpi_index.push_back(cpi);
    result.per_cpi_latency.push_back(lat);
    latency_hist.observe(lat);
    latency_sum += lat;
    ++latency_count;
  }
  if (gap_count > 0 && gap_sum > 0.0)
    result.throughput = static_cast<double>(gap_count) / gap_sum;
  if (latency_count > 0)
    result.latency = latency_sum / static_cast<double>(latency_count);
  result.latency_percentiles = {latency_hist.quantile(0.50),
                                latency_hist.quantile(0.95),
                                latency_hist.quantile(0.99)};
  result.latency_histogram = latency_hist.snapshot();

  // Queue-wait gauge per task: mean blocked-in-recv seconds per CPI over
  // the task's ranks and the whole stream. Ranks are attributed to their
  // final-epoch role (a migrated rank's pre-migration wait rides along —
  // acceptable smear for a gauge that feeds relative comparisons).
  const auto& stats = world.last_stats();
  const Topology& tf = eng.final_topology();
  for (int t = 0; t < stap::kNumTasks; ++t) {
    const stap::Task task = static_cast<stap::Task>(t);
    double wait = 0.0;
    for (int r = 0; r < tf.count(task); ++r)
      wait +=
          stats[static_cast<size_t>(tf.rank_at(task, r))].recv_wait_seconds;
    result.queue_wait_per_cpi[static_cast<size_t>(t)] =
        wait / (static_cast<double>(tf.count(task)) *
                static_cast<double>(num_cpis));
  }

  for (int e = 0; e < kNumPipelineEdges; ++e)
    result.bytes_per_edge_per_cpi[static_cast<size_t>(e)] =
        static_cast<double>(
            s.edge_bytes[static_cast<size_t>(e)].load(
                std::memory_order_relaxed)) /
        static_cast<double>(s.measured_count());

  // Publish to the process-wide metrics registry for exporters.
  auto& reg = obs::Registry::global();
  auto& hist = reg.histogram("pipeline.cpi_latency_seconds",
                             obs::Histogram::exponential_bounds(1e-5, 1e3,
                                                                1.35));
  for (const double lat : result.per_cpi_latency) hist.observe(lat);
  reg.gauge("pipeline.throughput_cpi_per_s").set(result.throughput);
  for (int t = 0; t < stap::kNumTasks; ++t) {
    const std::string name = stap::task_name(static_cast<stap::Task>(t));
    reg.gauge("pipeline.queue_wait_s." + name)
        .set(result.queue_wait_per_cpi[static_cast<size_t>(t)]);
  }
  for (int e = 0; e < kNumPipelineEdges; ++e)
    reg.counter(std::string("pipeline.edge_bytes.") +
                sim_edge_name(static_cast<SimEdge>(e)))
        .add(s.edge_bytes[static_cast<size_t>(e)].load(
            std::memory_order_relaxed));

  // --- fault ledger ---------------------------------------------------------
  for (index_t cpi = 0; cpi < num_cpis; ++cpi)
    if (s.shed[static_cast<size_t>(cpi)])
      result.faults.shed_cpis.push_back(cpi);
  static_assert(kNumPipelineEdges < comm::kRetryEdgeBuckets,
                "every pipeline edge needs its own comm edge bucket");
  static_assert(
      std::tuple_size_v<decltype(result.faults.retry_histogram)> ==
          comm::kRetryEdgeBuckets,
      "fault ledger histogram buckets must mirror the comm layer");
  static_assert(
      std::tuple_size_v<
          decltype(result.faults.retry_histogram)::value_type> ==
          comm::kMaxRetransmitAttempts + 1,
      "fault ledger histogram attempts must mirror the comm layer");
  std::uint64_t copied = 0;
  for (const auto& st : stats) {
    for (int e = 0; e < kNumPipelineEdges; ++e) {
      result.transport_copied_bytes[static_cast<size_t>(e)] +=
          st.copied_bytes[static_cast<size_t>(e)];
      copied += st.copied_bytes[static_cast<size_t>(e)];
    }
    result.faults.retransmissions += st.retransmissions;
    result.faults.dup_discarded += st.dup_discarded;
    for (size_t b = 0; b < st.retry_histogram.size(); ++b)
      for (size_t a = 0; a < st.retry_histogram[b].size(); ++a)
        result.faults.retry_histogram[b][a] += st.retry_histogram[b][a];
  }
  if (plan_ != nullptr) {
    const comm::FaultStats fs = plan_->stats();
    result.faults.frames_delayed = fs.delayed;
    result.faults.frames_dropped = fs.dropped;
    result.faults.frames_corrupted = fs.corrupted;
    result.faults.kills = fs.kills;
    result.faults.stage_slowdowns = fs.slowed;
    result.faults.frames_jittered = fs.jittered;
    result.faults.frames_duplicated = fs.duplicated;
  }
  result.faults.failovers = std::move(s.failovers);
  // Any topology rank dead at exit with neither a covering takeover nor a
  // committed shrink died uncovered: its CPIs were shed (prompt dead-peer
  // statuses, not hangs) and the gap is ledgered here — both in the fault
  // ledger and as an "uncovered" healing event.
  {
    const std::vector<int> shrunk = eng.shrunk_ranks();
    for (int g = 0; g < assign_.total(); ++g) {
      if (!world.rank_dead(g)) continue;
      bool covered = false;
      for (const auto& f : result.faults.failovers)
        if (f.rank == g) covered = true;
      for (const int r : shrunk)
        if (r == g) covered = true;
      if (covered) continue;
      result.faults.uncovered_ranks.push_back(g);
      HealingEvent ev;
      ev.rank = g;
      ev.task = s.task_of_rank(g, s.n_cpis - 1);
      ev.mechanism = "uncovered";
      s.healing.push_back(ev);
    }
  }
  if (!result.faults.clean()) {
    reg.counter("pipeline.cpis_shed")
        .add(static_cast<std::uint64_t>(result.faults.shed_cpis.size()));
    reg.counter("pipeline.failovers")
        .add(static_cast<std::uint64_t>(result.faults.failovers.size()));
    reg.counter("comm.retransmissions").add(result.faults.retransmissions);
    if (result.faults.stage_slowdowns > 0)
      reg.counter("fault.stage_slowdowns").add(result.faults.stage_slowdowns);
    if (result.faults.frames_jittered > 0)
      reg.counter("fault.frames_jittered").add(result.faults.frames_jittered);
    if (result.faults.frames_duplicated > 0)
      reg.counter("fault.frames_duplicated")
          .add(result.faults.frames_duplicated);
    if (result.faults.dup_discarded > 0)
      reg.counter("comm.dup_discarded").add(result.faults.dup_discarded);
    if (!result.faults.uncovered_ranks.empty())
      reg.counter("pipeline.uncovered_failures")
          .add(static_cast<std::uint64_t>(
              result.faults.uncovered_ranks.size()));
  }
  if (copied > 0) {
    reg.counter("comm.copied_bytes").add(copied);
    for (int e = 0; e < kNumPipelineEdges; ++e)
      if (result.transport_copied_bytes[static_cast<size_t>(e)] > 0)
        reg.counter(std::string("comm.copied_bytes.") +
                    sim_edge_name(static_cast<SimEdge>(e)))
            .add(result.transport_copied_bytes[static_cast<size_t>(e)]);
  }
  if (ft_.spares > 0)
    reg.counter("spare.poll_wakeups")
        .add(s.spare_wakeups.load(std::memory_order_relaxed));

  // --- healing ledger -------------------------------------------------------
  std::sort(s.healing.begin(), s.healing.end(),
            [](const HealingEvent& a, const HealingEvent& b) {
              return std::tie(a.resume_cpi, a.rank) <
                     std::tie(b.resume_cpi, b.rank);
            });
  result.healing.events = std::move(s.healing);
  if (!result.healing.clean()) {
    reg.counter("healing.spare_takeovers")
        .add(result.healing.spare_takeovers());
    reg.counter("healing.shrinks").add(result.healing.shrinks());
    reg.counter("healing.quarantines").add(result.healing.quarantines());
    reg.counter("healing.uncovered").add(result.healing.uncovered());
  }

  // --- health ledger --------------------------------------------------------
  if (s.health != nullptr) {
    result.health = s.health->ledger();
    if (!result.health.clean()) {
      reg.counter("health.suspects").add(result.health.suspects);
      reg.counter("health.flap_suppressed")
          .add(result.health.flap_suppressed);
      reg.counter("health.vetoed").add(result.health.vetoed);
      // health.quarantines is bumped at eviction time by the monitor.
    }
  }

  // --- overload + numerical-health ledgers ----------------------------------
  if (s.ctrl != nullptr) {
    result.overload = s.ctrl->ledger();
    if (!result.overload.clean()) {
      reg.counter("overload.rejections")
          .add(static_cast<std::uint64_t>(
              result.overload.rejected_cpis.size()));
      reg.counter("overload.level_changes")
          .add(result.overload.level_changes);
      reg.counter("overload.throttle_waits")
          .add(result.overload.throttle_waits);
      reg.counter("overload.capacity_losses")
          .add(result.overload.capacity_losses);
      reg.gauge("overload.max_level")
          .set(static_cast<double>(result.overload.max_level));
    }
  } else {
    result.overload.levels.assign(static_cast<size_t>(num_cpis), 0);
  }
  result.numerics = s.numerics;
  if (!result.numerics.clean()) {
    reg.counter("stap.nonfinite_training_blocks")
        .add(result.numerics.nonfinite_training_blocks);
    reg.counter("stap.loading_retries").add(result.numerics.loading_retries);
    reg.counter("stap.quiescent_fallbacks")
        .add(result.numerics.quiescent_fallbacks);
    reg.counter("stap.qr_residual_retries")
        .add(result.numerics.qr_residual_retries);
    reg.counter("stap.qr_residual_rejects")
        .add(result.numerics.qr_residual_rejects);
  }

  // --- integrity ledger -----------------------------------------------------
  result.integrity.checks_passed =
      s.integ_checks_passed.load(std::memory_order_relaxed);
  result.integrity.checks_failed =
      s.integ_checks_failed.load(std::memory_order_relaxed);
  result.integrity.recomputes =
      s.integ_recomputes.load(std::memory_order_relaxed);
  result.integrity.repairs = s.integ_repairs.load(std::memory_order_relaxed);
  result.integrity.escalations =
      s.integ_escalations.load(std::memory_order_relaxed);
  result.integrity.digest_mismatches =
      s.integ_digest_mismatches.load(std::memory_order_relaxed);
  for (int t = 0; t < stap::kNumTasks; ++t)
    result.integrity.digest_mismatch_by_task[static_cast<size_t>(t)] =
        s.integ_digest_by_task[static_cast<size_t>(t)].load(
            std::memory_order_relaxed);
  std::sort(s.integ_events.begin(), s.integ_events.end(),
            [](const IntegrityEvent& a, const IntegrityEvent& b) {
              return std::tie(a.cpi, a.task) < std::tie(b.cpi, b.task);
            });
  result.integrity.events = std::move(s.integ_events);

  // --- migration ledger -----------------------------------------------------
  result.migrations = eng.ledger();
  if (!result.migrations.attempts.empty()) {
    // Measured quiesce stall per attempt: the excess of the barrier CPI's
    // sink inter-completion gap over the run's median gap (the live
    // analogue of the simulator's migration_stall).
    std::vector<double> gaps;
    for (index_t cpi = 1; cpi < num_cpis; ++cpi) {
      const auto i = static_cast<size_t>(cpi);
      if (s.completion[i] > 0.0 && s.completion[i - 1] > 0.0)
        gaps.push_back(s.completion[i] - s.completion[i - 1]);
    }
    double median_gap = 0.0;
    if (!gaps.empty()) {
      auto mid = gaps.begin() + static_cast<std::ptrdiff_t>(gaps.size() / 2);
      std::nth_element(gaps.begin(), mid, gaps.end());
      median_gap = *mid;
    }
    for (auto& e : result.migrations.attempts) {
      const auto b = static_cast<size_t>(e.barrier_cpi);
      if (e.barrier_cpi >= 1 && b < s.completion.size() &&
          s.completion[b] > 0.0 && s.completion[b - 1] > 0.0)
        e.stall_seconds = std::max(
            0.0, (s.completion[b] - s.completion[b - 1]) - median_gap);
    }
  }
  result.completion_times = s.completion;
  if (result.integrity.checks_passed > 0) {
    reg.counter("integrity.checks_passed")
        .add(result.integrity.checks_passed);
  }
  if (!result.integrity.clean()) {
    reg.counter("integrity.checks_failed")
        .add(result.integrity.checks_failed);
    reg.counter("integrity.recomputes").add(result.integrity.recomputes);
    reg.counter("integrity.repairs").add(result.integrity.repairs);
    reg.counter("integrity.escalations").add(result.integrity.escalations);
    reg.counter("integrity.digest_mismatches")
        .add(result.integrity.digest_mismatches);
  }
  return result;
}

}  // namespace ppstap::core
