// Fault-tolerance policies for the pipelined STAP runtime.
//
// The paper's target is a radar flight processor: a real-time system that
// must keep streaming CPIs when a node stalls or dies, not abort. Two
// policies hang off ParallelStapPipeline (both default-off; the fault-free
// path is byte-identical to the plain pipeline):
//
//  * Deadline-aware CPI shedding — a task that cannot assemble CPI i's
//    inputs within `cpi_deadline_seconds` emits a `dropped` marker
//    downstream instead of stalling the stream; the CFAR sink records the
//    CPI as shed. Late frames for a shed CPI are discarded on arrival.
//
//  * Spare-rank failover — the world gets a pool of standby ranks;
//    weight-task ranks checkpoint their adaptive state (easy training
//    history / hard triangular factors, via the weight-computer
//    save/restore) after every CPI, and a killed rank is revived on a
//    spare: state restored, identity and mailbox assumed, stream resumed at
//    the next CPI (a stateless rank at its frozen progress point). The
//    measured recovery stall is the empirical counterpart of the machine
//    model's ReallocationPlan::migration_stall.
//
// PipelineResult carries a FaultLedger accounting for every shed CPI,
// retransmission, injected fault, and failover.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace ppstap::core {

struct FaultToleranceConfig {
  /// Deadline-aware CPI shedding (policy (a)).
  bool shedding = false;
  /// Real-time budget for assembling one CPI's inputs at one task, counted
  /// from the start of that task's receive phase.
  double cpi_deadline_seconds = 0.25;

  /// Spare-rank failover (policy (b)): a pool of N standby ranks, each
  /// able to assume *any* role. Weight ranks resume from their per-CPI
  /// checkpoints; the stateless tasks (Doppler, beamform, PC, CFAR) resume
  /// from the topology epoch, with any half-consumed in-flight CPI shed by
  /// the deadline machinery (so mid-CPI stateless recovery wants
  /// `shedding` on). 0 = no pool.
  int spares = 0;
  /// When the pool is exhausted (or empty) and a rank of a migratable
  /// group dies, let the elastic engine shrink the group to the survivors
  /// under a new topology epoch instead of ledgering an uncovered failure.
  bool heal_shrink = false;
  /// How often the idle spare polls for deaths (and for stream completion).
  double death_poll_seconds = 0.002;

  bool any() const { return shedding || spares > 0 || heal_shrink; }

  /// Read the PPSTAP_FAULT_* / PPSTAP_SPARES / PPSTAP_HEAL* environment
  /// knobs (see README):
  ///   PPSTAP_FAULT_DEADLINE  seconds; > 0 enables shedding with that budget
  ///   PPSTAP_SPARES          spare-pool size
  ///   PPSTAP_HEAL_SHRINK     nonzero enables shrink-to-survivors
  ///   PPSTAP_FAULT_POLL      seconds; overrides death_poll_seconds
  static FaultToleranceConfig from_env();
};

/// One completed spare-rank recovery.
struct FailoverEvent {
  int rank = -1;      ///< global rank that died and was revived
  int task = -1;      ///< stap::Task index of that rank
  index_t resume_cpi = 0;  ///< first CPI processed by the spare
  /// Seconds from the rank's death to restore-complete on the spare (the
  /// measured analogue of the simulator's migration_stall).
  double recovery_stall_seconds = 0.0;
};

/// Everything that went wrong (or was injected) during a pipeline run.
struct FaultLedger {
  /// CPIs the sink recorded as shed (ascending; detections for these CPIs
  /// are absent and their latency is excluded from the averages).
  std::vector<index_t> shed_cpis;
  /// Checksum-failure refetches summed over all ranks.
  std::uint64_t retransmissions = 0;
  // Injected-fault counts from the installed FaultPlan, if any.
  std::uint64_t frames_delayed = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t frames_corrupted = 0;
  std::uint64_t kills = 0;
  // Gray-failure injections (PR 10).
  std::uint64_t stage_slowdowns = 0;   ///< stage executions stretched by kSlow
  std::uint64_t frames_jittered = 0;   ///< heavy-tailed delivery delays
  std::uint64_t frames_duplicated = 0; ///< kDuplicate re-deliveries enqueued
  /// Re-delivered frames dropped by the receivers' idempotence ledger
  /// (summed CommStats::dup_discarded). On a drained run this matches
  /// frames_duplicated — every injected duplicate was caught.
  std::uint64_t dup_discarded = 0;
  std::vector<FailoverEvent> failovers;
  /// Ranks that died and were never healed — no spare left to claim them
  /// and no shrink could re-plan their group. Their CPIs are shed instead
  /// of hanging the stream, and the gap is ledgered here.
  std::vector<int> uncovered_ranks;
  /// Per-edge retransmission histogram summed over all ranks, mirroring
  /// comm::CommStats::retry_histogram (rows = tag-slot buckets, data edges
  /// 0-8 plus an "other" bucket; column a = frames delivered after exactly
  /// a+1 refetches, last column = budget exhausted). Dimensions match
  /// comm::kRetryEdgeBuckets x (comm::kMaxRetransmitAttempts + 1),
  /// static_asserted at the aggregation site.
  std::array<std::array<std::uint64_t, 6>, 10> retry_histogram{};

  bool clean() const {
    return shed_cpis.empty() && retransmissions == 0 && frames_delayed == 0 &&
           frames_dropped == 0 && frames_corrupted == 0 && kills == 0 &&
           stage_slowdowns == 0 && frames_jittered == 0 &&
           frames_duplicated == 0 && dup_discarded == 0 &&
           failovers.empty() && uncovered_ranks.empty();
  }
};

}  // namespace ppstap::core
