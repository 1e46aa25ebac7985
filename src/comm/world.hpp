// In-process message-passing runtime.
//
// The paper's implementation uses ANSI C + MPI on the Paragon; this runtime
// reproduces the same programming model inside one process: a World of
// ranks (one thread each), tagged point-to-point messages matched on
// (source, tag), eager buffered sends, blocking receives, and a barrier.
// Every inter-task byte of the parallel pipeline flows through here, so the
// functional behaviour (who sends what to whom, in which order) is
// identical to a distributed run, and per-rank byte counters feed the
// communication-volume checks against the machine model.
//
// Owned frames (frame.hpp): send moves the producer's packed Buffer into
// the destination mailbox and the receiver reads it as a Frame, so the
// transport copies no payload byte; the paper likewise collects and
// reorganizes a node's data once and then sends it (§3, Figs. 6-8).
//
// Flow control: each rank's mailbox has a byte capacity; senders block when
// the destination is full (at least one message is always admitted so a
// single oversized message cannot deadlock). This models the backpressure a
// finite-buffer interconnect applies to a pipeline whose downstream tasks
// lag — without it the Doppler task would race arbitrarily far ahead.
//
// Framing and fault tolerance: every message travels as a frame carrying a
// per-(src, dest) sequence number and a payload checksum. A checksum
// mismatch (possible only under fault injection, see fault.hpp) triggers
// the retransmission path: bounded retries with backoff against the
// sender-side pristine copy, counted in CommStats::retransmissions. An
// installed FaultPlan can also delay frames in flight, drop them, or kill
// a rank at a chosen send/recv. The corrupted copy, each refetch and a
// duplicate's second copy are the only payload copies the transport makes
// (CommStats::copied_bytes).
//
// Failure behaviour: a rank that throws RankKilled dies *individually* —
// peers observe peer-dead (recv_for returns RecvStatus::kPeerDead, plain
// recv throws once the mailbox drains, barriers complete over the
// surviving ranks) and, if the rank was marked recoverable, a standby can
// claim the death with wait_for_death() and assume the dead rank's
// identity (and intact mailbox) with Comm::take_over(). Any other
// exception aborts the whole world and every blocked operation on any
// rank throws ppstap::Error instead of hanging.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "comm/frame.hpp"
#include "common/check.hpp"
#include "common/types.hpp"

namespace ppstap::comm {

class World;
class FaultPlan;

/// A corrupted frame is refetched from the sender-side pristine copy at
/// most this many times before the receiver gives up (RecvStatus::kCorrupt
/// on a deadline receive, fatal otherwise).
inline constexpr int kMaxRetransmitAttempts = 5;

/// Tag-slot buckets for the per-edge counters: slots 0-8 are the Fig. 4
/// data edges (tag = cpi * 16 + slot, see pipeline.cpp tag_for), bucket 9
/// aggregates everything else (protocol slots, test traffic).
inline constexpr int kRetryEdgeBuckets = 10;

/// Thrown inside a rank when a FaultPlan kKill rule fires (before the
/// matched operation takes effect, so no message is half-consumed).
/// World::run treats it as a per-rank death, not a global abort.
class RankKilled : public Error {
 public:
  explicit RankKilled(int rank)
      : Error("rank " + std::to_string(rank) + " killed by fault injection"),
        rank_(rank) {}
  int rank() const { return rank_; }

 private:
  int rank_;
};

/// Per-rank communication statistics.
struct CommStats {
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  /// Frames whose checksum failed on delivery and were fetched again from
  /// the sender-side pristine copy (nonzero only under fault injection).
  std::uint64_t retransmissions = 0;
  /// Per-edge retry-count histogram: retry_histogram[e][a] counts frames
  /// received on edge bucket e (tag slot, kRetryEdgeBuckets) that delivered
  /// after exactly a+1 refetches; the last column (a ==
  /// kMaxRetransmitAttempts) counts frames that exhausted the budget.
  /// All-zero for frames that deliver clean on the first attempt.
  std::array<std::array<std::uint64_t, kMaxRetransmitAttempts + 1>,
             kRetryEdgeBuckets>
      retry_histogram{};
  /// Payload bytes the transport copied, per edge bucket: the corrupted
  /// copy a corrupt rule delivers, each refetch of the pristine copy, and a
  /// kDuplicate's second copy (charged to the rank that made the copy).
  /// All-zero on a fault-free run — frames move, they are not copied.
  std::array<std::uint64_t, kRetryEdgeBuckets> copied_bytes{};
  /// Seconds this rank spent blocked inside recv waiting for a matching
  /// message to arrive (the queue-wait component of Fig. 10's receive
  /// phase; feeds the per-task queue-wait gauges).
  double recv_wait_seconds = 0.0;
  /// Seconds this rank spent blocked in send on mailbox flow control.
  double send_wait_seconds = 0.0;
  /// Frames discarded by receiver-side idempotence: a frame whose
  /// (src, seq) was already delivered (or deliberately discarded) arrived
  /// again — a kDuplicate re-delivery, never the retransmission path,
  /// which refetches in place without a second enqueue.
  std::uint64_t dup_discarded = 0;
};

/// Small causal trace context a sender can piggyback on a frame (the
/// observability analogue of PR 5's payload digests): enough for obs to
/// stitch per-rank spans into one end-to-end chain per CPI. Carried in the
/// frame struct itself — never serialized into the payload — so receivers
/// see exactly the bytes that were sent and the disabled path costs one
/// null-pointer test per send.
struct FlowContext {
  std::int64_t cpi = -1;    ///< CPI the consumer will process
  std::int16_t task = -1;   ///< producing task (stap::Task index)
  std::int16_t edge = -1;   ///< redistribution edge id (core SimEdge)
  std::int32_t hop = 0;     ///< hop sequence along the pipeline (1-based)
  double sent_at = 0.0;     ///< WallTimer::now() when the send started
};

/// Outcome of a deadline receive (Comm::recv_for).
enum class RecvStatus {
  kOk,        ///< payload (or marker) delivered
  kTimeout,   ///< no matching frame arrived within the deadline
  kPeerDead,  ///< the source rank died and nobody can revive it
  kCorrupt,   ///< the frame stayed corrupt past the retransmission budget;
              ///< it has been consumed (late retries cannot succeed)
};

/// A deadline receive's result. `marker` distinguishes a zero-payload
/// control frame (Comm::send_marker — the pipeline's "CPI shed" token)
/// from a regular message.
struct RecvResult {
  RecvStatus status = RecvStatus::kOk;
  bool marker = false;
  Frame frame;

  /// True only for a regular data delivery.
  bool ok() const { return status == RecvStatus::kOk && !marker; }
};

/// A rank's handle to the world. Valid only inside World::run's callback,
/// on the thread it was given to.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// Eager buffered send: moves `payload` into the destination mailbox (no
  /// copy). Blocks only when the destination mailbox is over capacity.
  /// When `flow` is non-null its trace context rides on the frame (sent_at
  /// is stamped here) and the receiver emits an obs "xfer" flow span on
  /// delivery.
  void send(int dest, int tag, Buffer&& payload,
            const FlowContext* flow = nullptr);

  /// Send a copy of `data` (packed into a standalone buffer) — for small
  /// control payloads and tests; data paths pack into pooled buffers.
  template <typename T>
  void send(int dest, int tag, std::span<const T> data,
            const FlowContext* flow = nullptr) {
    static_assert(std::is_trivially_copyable_v<T>);
    Buffer b(data.size_bytes());
    if (!data.empty()) std::memcpy(b.data(), data.data(), data.size_bytes());
    send(dest, tag, std::move(b), flow);
  }

  /// Send a zero-payload control marker (delivered with
  /// RecvResult::marker == true). The pipeline uses it as the "CPI shed"
  /// token propagated downstream in place of data.
  void send_marker(int dest, int tag);

  /// Blocking receive of the next message matching (src, tag).
  Frame recv(int src, int tag);

  /// Deadline receive: like recv but gives up after `timeout_seconds`
  /// (RecvStatus::kTimeout) and reports a dead, unrevivable source as
  /// RecvStatus::kPeerDead instead of hanging. A recoverable dead source is
  /// waited on for the full deadline — a spare may still take over and
  /// produce the message.
  RecvResult recv_for(int src, int tag, double timeout_seconds);

  /// Nonblocking probe-and-receive: returns the matching message if one is
  /// already deliverable, std::nullopt otherwise (never blocks).
  std::optional<Frame> try_recv(int src, int tag);

  /// Drop every currently buffered frame matching (src, tag) — late
  /// arrivals for a CPI the receiver already shed. Returns the number of
  /// frames discarded. Never blocks.
  std::size_t discard(int src, int tag);

  /// Assume the identity (rank number and mailbox) of a dead recoverable
  /// rank previously claimed via World::wait_for_death. After this call
  /// rank() == dead_rank, pending frames addressed to the dead rank are
  /// receivable, and peers no longer observe the rank as dead.
  void take_over(int dead_rank);

  /// Global barrier over all live ranks of the world.
  void barrier();

  const CommStats& stats() const { return stats_; }

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}
  World* world_;
  int rank_;
  CommStats stats_;
};

class World {
 public:
  /// `mailbox_capacity_bytes` bounds the buffered bytes per rank before
  /// senders block (flow control / pipeline backpressure).
  explicit World(int num_ranks,
                 std::size_t mailbox_capacity_bytes = 256ull << 20);
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  int size() const { return num_ranks_; }

  /// Install a fault-injection plan (borrowed; must outlive the run, may
  /// be nullptr to clear). run() resets the plan's counters so a seeded
  /// plan replays identically across runs.
  void set_fault_plan(FaultPlan* plan) { plan_ = plan; }

  /// Declare a rank recoverable: if it dies, peers keep buffering to it
  /// and wait for a spare instead of observing peer-dead immediately.
  void set_recoverable(int rank, bool flag = true);

  /// Block up to `timeout_seconds` for a dead recoverable rank nobody has
  /// claimed yet; claims and returns it, or std::nullopt on timeout.
  /// Throws if the world aborts while waiting. Intended for spare ranks.
  std::optional<int> wait_for_death(double timeout_seconds);

  /// True while `rank` is dead and unclaimed/unrevived.
  bool rank_dead(int rank) const;

  /// True while `rank` is marked recoverable (a standby may still claim its
  /// death). False means a death of this rank is permanent — the signal the
  /// elastic shrink path keys on.
  bool rank_recoverable(int rank) const;

  /// WallTimer::now() timestamp at which `rank` died (0 if alive);
  /// subtract from the spare's restore-complete time for recovery stall.
  double death_time(int rank) const;

  /// Payload bytes currently queued in `rank`'s mailbox (the flow-control
  /// count; duplicates included).
  std::size_t buffered_bytes(int rank) const;

  /// Abort the world from outside the rank callbacks (e.g. a test
  /// watchdog): every blocked operation throws promptly and run() rethrows
  /// an Error carrying `why`.
  void request_abort(const std::string& why = "abort requested");

  /// Spawn one thread per rank running `fn`, join all, and rethrow the
  /// first rank exception (if any). RankKilled is not an error: the rank
  /// dies individually and run() returns normally once the survivors
  /// finish. May be called repeatedly.
  void run(const std::function<void(Comm&)>& fn);

  /// Statistics gathered during the last run, indexed by rank.
  const std::vector<CommStats>& last_stats() const { return last_stats_; }

 private:
  friend class Comm;
  struct Mailbox;
  struct Envelope;
  int num_ranks_;
  std::size_t capacity_;
  FaultPlan* plan_ = nullptr;
  std::vector<std::unique_ptr<Mailbox>> boxes_;
  std::vector<CommStats> last_stats_;

  // Abort + barrier + liveness state live behind the Impl wall too.
  struct Shared;
  std::unique_ptr<Shared> shared_;

  void do_send(Comm& c, int dest, int tag, Buffer&& payload, bool marker,
               const FlowContext* flow);
  RecvResult do_recv(Comm& c, int src, int tag, const double* timeout);
  /// Drop re-delivered copies of a just-consumed frame from the mailbox
  /// (caller holds the mailbox lock). Without this a duplicate whose tag is
  /// only ever received once would sit in the queue forever, counting
  /// against channel capacity — a duplicate storm must not turn into
  /// permanent backpressure.
  static void sweep_duplicates(Comm& c, Mailbox& box, int src,
                               std::uint64_t seq);
  std::size_t do_discard(Comm& c, int src, int tag);
  void do_take_over(Comm& c, int dead_rank);
  void do_barrier();
  // nullopt (budget exhausted) only when allow_corrupt_failure; the plain
  // recv path keeps treating persistent corruption as fatal.
  std::optional<Frame> finalize_frame(Comm& c, Envelope&& env,
                                      bool allow_corrupt_failure);
  /// A copy of `src` charged to `c`'s copied_bytes on the bucket of `tag`.
  static Buffer copy_payload(Comm& c, const Frame& src, int tag);
  void mark_dead(int rank);
  void abort_world();
  /// Wake every waiter: barrier/death waiters and each mailbox's senders
  /// and receivers, so their predicates re-read liveness and abort state.
  void wake_all();
};

}  // namespace ppstap::comm
