// Tests for the in-process message-passing runtime: point-to-point
// semantics, tag matching, flow control, barriers, abort-on-error, and the
// all-to-all personalized exchange pattern the pipeline uses.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <thread>

#include "comm/fault.hpp"
#include "comm/world.hpp"
#include "common/timer.hpp"

namespace ppstap::comm {
namespace {

TEST(World, PingPong) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> payload = {1, 2, 3};
      c.send<int>(1, 7, payload);
      const Frame frame = c.recv(1, 8);
      const auto echo = frame.as<int>();
      ASSERT_EQ(echo.size(), 3u);
      EXPECT_EQ(echo[2], 6);
    } else {
      const Frame got = c.recv(0, 7);
      std::vector<int> doubled;
      for (const int v : got.as<int>()) doubled.push_back(2 * v);
      c.send<int>(0, 8, doubled);
    }
  });
}

TEST(World, TagMatchingOutOfOrder) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> a = {1}, b = {2}, d = {3};
      c.send<int>(1, 10, a);
      c.send<int>(1, 20, b);
      c.send<int>(1, 30, d);
    } else {
      // Receive in reverse tag order: matching must be by tag, not arrival.
      EXPECT_EQ(c.recv(0, 30).as<int>()[0], 3);
      EXPECT_EQ(c.recv(0, 20).as<int>()[0], 2);
      EXPECT_EQ(c.recv(0, 10).as<int>()[0], 1);
    }
  });
}

TEST(World, SameTagPreservesFifoPerSource) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        std::vector<int> v = {i};
        c.send<int>(1, 5, v);
      }
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(c.recv(0, 5).as<int>()[0], i);
    }
  });
}

TEST(World, EmptyMessagesAreDelivered) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> empty;
      c.send<int>(1, 1, empty);
    } else {
      EXPECT_TRUE(c.recv(0, 1).as<int>().empty());
    }
  });
}

TEST(World, AllToAllPersonalized) {
  // Every rank sends a distinct value to every other rank — the pipeline's
  // redistribution pattern.
  const int n = 6;
  World world(n);
  world.run([n](Comm& c) {
    for (int dst = 0; dst < n; ++dst) {
      std::vector<int> v = {c.rank() * 100 + dst};
      c.send<int>(dst, 42, v);
    }
    for (int src = 0; src < n; ++src)
      EXPECT_EQ(c.recv(src, 42).as<int>()[0], src * 100 + c.rank());
  });
}

TEST(World, BarrierSynchronizes) {
  const int n = 4;
  World world(n);
  std::atomic<int> before{0}, after{0};
  world.run([&](Comm& c) {
    before.fetch_add(1);
    c.barrier();
    // Every rank must have passed `before` by now.
    EXPECT_EQ(before.load(), n);
    after.fetch_add(1);
    c.barrier();
    EXPECT_EQ(after.load(), n);
  });
}

TEST(World, RepeatedBarriers) {
  World world(3);
  world.run([](Comm& c) {
    for (int i = 0; i < 50; ++i) c.barrier();
  });
}

TEST(World, RankExceptionPropagatesWithoutHanging) {
  World world(3);
  EXPECT_THROW(world.run([](Comm& c) {
                 if (c.rank() == 1) throw Error("rank 1 exploded");
                 // Other ranks block on a receive that will never be
                 // satisfied; the abort must wake them.
                 (void)c.recv(2, 99);
               }),
               Error);
}

TEST(World, AbortWakesBarrierWaiters) {
  World world(3);
  EXPECT_THROW(world.run([](Comm& c) {
                 if (c.rank() == 0) throw Error("boom");
                 c.barrier();
               }),
               Error);
}

TEST(World, FlowControlThrottlesWithoutDeadlock) {
  // Tiny mailbox: the producer must block until the consumer drains, but
  // every message still arrives exactly once.
  World world(2, /*mailbox_capacity_bytes=*/64);
  world.run([](Comm& c) {
    const int count = 100;
    if (c.rank() == 0) {
      for (int i = 0; i < count; ++i) {
        std::vector<int> v(16, i);  // 64 bytes each
        c.send<int>(1, 1, v);
      }
    } else {
      for (int i = 0; i < count; ++i) {
        const Frame frame = c.recv(0, 1);
        const auto v = frame.as<int>();
        ASSERT_EQ(v.size(), 16u);
        EXPECT_EQ(v[0], i);
      }
    }
  });
}

TEST(World, OversizedMessageStillAdmitted) {
  World world(2, /*mailbox_capacity_bytes=*/8);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> big(1000, 7);
      c.send<int>(1, 1, big);
    } else {
      EXPECT_EQ(c.recv(0, 1).as<int>().size(), 1000u);
    }
  });
}

TEST(World, TryRecvNeverBlocksAndConsumesOnce) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      EXPECT_FALSE(c.try_recv(1, 5).has_value());  // nothing yet
      c.barrier();  // rank 1 sends before this barrier
      c.barrier();
      auto got = c.try_recv(1, 5);
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->as<int>()[0], 42);
      EXPECT_FALSE(c.try_recv(1, 5).has_value());  // consumed
    } else {
      std::vector<int> v = {42};
      c.barrier();
      c.send<int>(0, 5, v);
      c.barrier();
    }
  });
}

TEST(World, TryRecvMatchesTagsSelectively) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {7};
      c.send<int>(1, 99, v);
      c.barrier();
    } else {
      c.barrier();
      EXPECT_FALSE(c.try_recv(0, 98).has_value());
      EXPECT_TRUE(c.try_recv(0, 99).has_value());
    }
  });
}

TEST(World, StatsCountBytesAndMessages) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<double> v(10);
      c.send<double>(1, 3, v);
      c.send<double>(1, 4, v);
    } else {
      (void)c.recv(0, 3);
      (void)c.recv(0, 4);
    }
  });
  const auto& stats = world.last_stats();
  EXPECT_EQ(stats[0].messages_sent, 2u);
  EXPECT_EQ(stats[0].bytes_sent, 160u);
  EXPECT_EQ(stats[1].messages_received, 2u);
  EXPECT_EQ(stats[1].bytes_received, 160u);
}

TEST(World, ReusableAcrossRuns) {
  World world(2);
  for (int round = 0; round < 3; ++round) {
    world.run([round](Comm& c) {
      if (c.rank() == 0) {
        std::vector<int> v = {round};
        c.send<int>(1, 0, v);
      } else {
        EXPECT_EQ(c.recv(0, 0).as<int>()[0], round);
      }
    });
  }
}

TEST(World, InvalidRankThrows) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& c) {
                 std::vector<int> v = {1};
                 c.send<int>(5, 0, v);
               }),
               Error);
}

TEST(World, SingleRankWorldWorks) {
  World world(1);
  world.run([](Comm& c) {
    std::vector<int> v = {42};
    c.send<int>(0, 0, v);  // self-send
    EXPECT_EQ(c.recv(0, 0).as<int>()[0], 42);
    c.barrier();
  });
}

TEST(World, ManyRanksStress) {
  // Ring exchange with 32 ranks on one core: exercises scheduling fairness.
  const int n = 32;
  World world(n);
  world.run([n](Comm& c) {
    const int next = (c.rank() + 1) % n;
    const int prev = (c.rank() + n - 1) % n;
    int token = c.rank();
    for (int step = 0; step < 8; ++step) {
      std::vector<int> v = {token};
      c.send<int>(next, step, v);
      token = c.recv(prev, step).as<int>()[0];
    }
    // After 8 hops the token originated 8 ranks back.
    EXPECT_EQ(token, (c.rank() + n - 8) % n);
  });
}

// ---------------------------------------------------------------------------
// Abort paths and watchdog
// ---------------------------------------------------------------------------

// Aborts the world when the guarded section does not finish within the
// deadline: a regression that hangs a blocked rank turns into a prompt
// Error here instead of a ctest timeout.
class Watchdog {
 public:
  Watchdog(World& world, double seconds)
      : thread_([&world, seconds, this] {
          std::unique_lock<std::mutex> lock(mu_);
          const auto deadline = std::chrono::duration<double>(seconds);
          if (!cv_.wait_for(lock, deadline, [this] { return disarmed_; }))
            world.request_abort("watchdog deadline exceeded");
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      disarmed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool disarmed_ = false;
  std::thread thread_;
};

TEST(WorldAbort, RequestAbortWakesBlockedReceivers) {
  World world(3);
  Watchdog dog(world, 0.2);
  const double t0 = WallTimer::now();
  EXPECT_THROW(world.run([](Comm& c) {
                 // Nobody ever sends tag 99: every rank is blocked until
                 // the watchdog aborts the world.
                 (void)c.recv((c.rank() + 1) % 3, 99);
               }),
               Error);
  EXPECT_LT(WallTimer::now() - t0, 5.0);
}

TEST(WorldAbort, AbortWakesFlowControlBlockedSender) {
  World world(2, /*mailbox_capacity_bytes=*/64);
  EXPECT_THROW(
      world.run([](Comm& c) {
        if (c.rank() == 0) {
          // The consumer never drains: this sender must block on flow
          // control, then observe the abort instead of hanging.
          std::vector<int> v(64, 1);
          for (int i = 0; i < 1000; ++i) c.send<int>(1, 1, v);
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          throw Error("receiver exploded");
        }
      }),
      Error);
}

TEST(WorldAbort, AbortWakesMixedBarrierAndRecvWaiters) {
  World world(4);
  Watchdog dog(world, 0.2);
  const double t0 = WallTimer::now();
  EXPECT_THROW(world.run([](Comm& c) {
                 // Half the ranks park in a barrier that can never
                 // complete, half in a recv that is never satisfied.
                 if (c.rank() % 2 == 0)
                   c.barrier();
                 else
                   (void)c.recv(0, 77);
               }),
               Error);
  EXPECT_LT(WallTimer::now() - t0, 5.0);
}

// ---------------------------------------------------------------------------
// Deadline receives, markers, discard
// ---------------------------------------------------------------------------

TEST(WorldDeadline, RecvForTimesOutThenDelivers) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      // Nothing has been sent yet: rank 1 is parked in the barrier.
      auto r = c.recv_for(1, 3, 0.02);
      EXPECT_EQ(r.status, RecvStatus::kTimeout);
      c.barrier();
      auto r2 = c.recv_for(1, 3, 5.0);
      ASSERT_EQ(r2.status, RecvStatus::kOk);
      EXPECT_FALSE(r2.marker);
      EXPECT_EQ(r2.frame.as<int>()[0], 42);
    } else {
      c.barrier();  // rank 0 has observed the timeout
      std::vector<int> v = {42};
      c.send<int>(0, 3, v);
    }
  });
}

TEST(WorldDeadline, MarkerDeliveredAsControlFrame) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send_marker(1, 4);
    } else {
      auto r = c.recv_for(0, 4, 5.0);
      EXPECT_EQ(r.status, RecvStatus::kOk);
      EXPECT_TRUE(r.marker);
      EXPECT_FALSE(r.ok());
      EXPECT_TRUE(r.frame.empty());
    }
  });
}

TEST(WorldDeadline, DiscardDropsAllMatchingFrames) {
  World world(2);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {1};
      for (int i = 0; i < 3; ++i) c.send<int>(1, 6, v);
      c.send<int>(1, 7, v);  // different tag must survive
      c.barrier();
    } else {
      c.barrier();
      EXPECT_EQ(c.discard(0, 6), 3u);
      EXPECT_EQ(c.discard(0, 6), 0u);
      EXPECT_TRUE(c.try_recv(0, 7).has_value());
    }
  });
}

// ---------------------------------------------------------------------------
// Fault injection primitives
// ---------------------------------------------------------------------------

TEST(FaultInjection, DelayHoldsFrameInFlight) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::delay_message(0, 1, 7, 0.15));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {5};
      c.send<int>(1, 7, v);
      c.barrier();
    } else {
      c.barrier();
      // The frame is buffered but not yet due: invisible to try_recv.
      EXPECT_FALSE(c.try_recv(0, 7).has_value());
      // The blocking recv waits out the injected latency.
      EXPECT_EQ(c.recv(0, 7).as<int>()[0], 5);
    }
  });
  EXPECT_EQ(plan.stats().delayed, 1u);
}

TEST(FaultInjection, DropDiscardsExactlyTheMatchedFrame) {
  World world(2);
  FaultPlan plan;
  auto rule = FaultPlan::drop_message(0, 1, 5);
  rule.max_applications = 1;
  plan.add(rule);
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> a = {1}, b = {2};
      c.send<int>(1, 5, a);  // dropped
      c.send<int>(1, 5, b);  // delivered
    } else {
      EXPECT_EQ(c.recv(0, 5).as<int>()[0], 2);
    }
  });
  EXPECT_EQ(plan.stats().dropped, 1u);
}

TEST(FaultInjection, CorruptionTriggersRetransmission) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::corrupt_message(0, 1, 9));  // corrupt once
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v(100);
      std::iota(v.begin(), v.end(), 0);
      c.send<int>(1, 9, v);
    } else {
      // Payload must arrive intact: the checksum failure is repaired from
      // the sender-side pristine copy.
      const Frame frame = c.recv(0, 9);
      const auto v = frame.as<int>();
      ASSERT_EQ(v.size(), 100u);
      for (int i = 0; i < 100; ++i) EXPECT_EQ(v[static_cast<size_t>(i)], i);
    }
  });
  EXPECT_EQ(plan.stats().corrupted, 1u);
  EXPECT_GE(world.last_stats()[1].retransmissions, 1u);
  // Tag 9 lands in edge bucket 9; the corrupt-once frame repaired on the
  // first retransmission attempt, so histogram slot 0 counts it.
  EXPECT_EQ(world.last_stats()[1].retry_histogram[9][0], 1u);
}

TEST(FaultInjection, SeededCoinIsDeterministic) {
  // Two identical runs of a probabilistic plan drop exactly the same
  // messages — the receiver sees the same survivor set both times.
  std::vector<int> survivors[2];
  for (int run = 0; run < 2; ++run) {
    World world(2);
    FaultPlan plan(/*seed=*/1234);
    auto rule = FaultPlan::drop_message(0, 1, 5);
    rule.probability = 0.5;
    plan.add(rule);
    world.set_fault_plan(&plan);
    world.run([&, run](Comm& c) {
      if (c.rank() == 0) {
        for (int i = 0; i < 32; ++i) {
          std::vector<int> v = {i};
          c.send<int>(1, 5, v);
        }
        c.barrier();
      } else {
        c.barrier();  // all sends (and drops) resolved
        while (auto v = c.try_recv(0, 5))
          survivors[run].push_back(v->as<int>()[0]);
      }
    });
    EXPECT_GT(plan.stats().dropped, 0u);
    EXPECT_LT(plan.stats().dropped, 32u);
  }
  EXPECT_EQ(survivors[0], survivors[1]);
}

TEST(FaultInjection, KillIsPerRankDeathNotGlobalAbort) {
  World world(3);
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(1, 7));
  world.set_fault_plan(&plan);
  // The kill is a per-rank death: run() returns normally.
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {1};
      c.send<int>(1, 7, v);
    } else if (c.rank() == 1) {
      EXPECT_THROW((void)c.recv(0, 7), RankKilled);
      throw RankKilled(1);  // rank-level death, observed by World::run
    } else {
      // A peer recv on the dead (unrecoverable) rank reports kPeerDead
      // instead of hanging; sends to it are black-holed, not blocking.
      auto r = c.recv_for(1, 8, 5.0);
      EXPECT_EQ(r.status, RecvStatus::kPeerDead);
      std::vector<int> v = {2};
      c.send<int>(1, 9, v);
    }
  });
  EXPECT_EQ(plan.stats().kills, 1u);
  EXPECT_TRUE(world.rank_dead(1));
  EXPECT_GT(world.death_time(1), 0.0);
}

TEST(FaultInjection, SpareTakesOverRecoverableDeadRank) {
  World world(3);
  world.set_recoverable(1);
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(1, 7));
  world.set_fault_plan(&plan);
  world.run([&world](Comm& c) {
    if (c.rank() == 0) {
      // The kill fires *before* the recv consumes: this frame must still
      // be in the mailbox when the spare takes over.
      std::vector<int> v = {11};
      c.send<int>(1, 7, v);
      // Plain blocking recv on a recoverable dead rank waits for the
      // spare rather than throwing.
      EXPECT_EQ(c.recv(1, 8).as<int>()[0], 22);
    } else if (c.rank() == 1) {
      EXPECT_THROW((void)c.recv(0, 7), RankKilled);
      throw RankKilled(1);
    } else {
      auto dead = world.wait_for_death(5.0);
      ASSERT_TRUE(dead.has_value());
      EXPECT_EQ(*dead, 1);
      c.take_over(1);
      EXPECT_EQ(c.rank(), 1);
      // The dead rank's mailbox is intact; kill_on_recv is exhausted
      // (max_applications = 1), so this recv succeeds.
      EXPECT_EQ(c.recv(0, 7).as<int>()[0], 11);
      std::vector<int> v = {22};
      c.send<int>(0, 8, v);
    }
  });
  EXPECT_FALSE(world.rank_dead(1));
  EXPECT_EQ(plan.stats().kills, 1u);
}

TEST(FaultInjection, WaitForDeathTimesOutWhenNobodyDies) {
  World world(2);
  world.set_recoverable(0);
  world.run([&world](Comm& c) {
    if (c.rank() == 1) {
      EXPECT_FALSE(world.wait_for_death(0.02).has_value());
    }
  });
}

TEST(FaultInjection, PlanReplaysIdenticallyAcrossRuns) {
  // World::run resets the plan, so the same rule fires in each run even
  // with max_applications = 1.
  World world(2);
  FaultPlan plan;
  auto rule = FaultPlan::drop_message(0, 1, 5);
  rule.max_applications = 1;
  plan.add(rule);
  world.set_fault_plan(&plan);
  for (int round = 0; round < 2; ++round) {
    world.run([](Comm& c) {
      if (c.rank() == 0) {
        std::vector<int> a = {1}, b = {2};
        c.send<int>(1, 5, a);
        c.send<int>(1, 5, b);
      } else {
        EXPECT_EQ(c.recv(0, 5).as<int>()[0], 2);
      }
    });
    EXPECT_EQ(plan.stats().dropped, 1u);
  }
}

// PR 8 (death-path edge case): a sender dies while one of its frames is
// mid-retransmission at the receiver. The receiver must not wedge waiting
// for repairs from a corpse — it burns the budget against the mailbox
// copies and surfaces kCorrupt, and the exhaustion is ledgered in the
// per-edge retry histogram's overflow slot.
TEST(FaultInjection, SenderDeathDuringInFlightRetransmission) {
  World world(3);
  FaultPlan plan;
  auto rule = FaultPlan::corrupt_message(0, 1, 9);
  rule.max_applications = -1;  // every copy, originals and retransmissions
  plan.add(rule);
  plan.add(FaultPlan::kill_on_recv(0, 7));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v(64);
      std::iota(v.begin(), v.end(), 0);
      c.send<int>(1, 9, v);  // poisoned frame, already in flight
      // Handshake recv that kills the sender while rank 1 is still
      // retrying the poisoned frame.
      EXPECT_THROW((void)c.recv(2, 7), RankKilled);
      throw RankKilled(0);
    } else if (c.rank() == 1) {
      auto r = c.recv_for(0, 9, 5.0);
      EXPECT_EQ(r.status, RecvStatus::kCorrupt);
    } else {
      std::vector<int> go = {1};
      c.send<int>(0, 7, go);
    }
  });
  EXPECT_TRUE(world.rank_dead(0));
  // The exhausted budget is recorded in the overflow slot of edge
  // bucket 9 (tag 9 < kEdgeCount).
  EXPECT_EQ(world.last_stats()[1].retry_histogram[9][kMaxRetransmitAttempts],
            1u);
}

// PR 8 (death-path edge case): two recoverable ranks die in the same plan
// while two idle claimants wait. Each wait_for_death claim is exclusive —
// the two claimants take over disjoint corpses and both roles resume.
TEST(FaultInjection, SimultaneousMultiRankKillClaimsAreDisjoint) {
  World world(5);
  world.set_recoverable(0);
  world.set_recoverable(1);
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(0, 7));
  plan.add(FaultPlan::kill_on_recv(1, 7));
  world.set_fault_plan(&plan);
  std::atomic<unsigned> claimed_mask{0};
  world.run([&world, &claimed_mask](Comm& c) {
    if (c.rank() == 0 || c.rank() == 1) {
      EXPECT_THROW((void)c.recv(2, 7), RankKilled);
      throw RankKilled(c.rank());
    } else if (c.rank() == 2) {
      std::vector<int> v = {1};
      c.send<int>(0, 7, v);
      c.send<int>(1, 7, v);
      // Both corpses were claimed and revived: each claimant answers from
      // the rank it took over.
      EXPECT_EQ(c.recv(0, 8).as<int>()[0], 100);
      EXPECT_EQ(c.recv(1, 8).as<int>()[0], 101);
    } else {
      auto dead = world.wait_for_death(5.0);
      ASSERT_TRUE(dead.has_value());
      claimed_mask.fetch_or(1u << *dead);
      c.take_over(*dead);
      std::vector<int> v = {100 + c.rank()};
      c.send<int>(2, 8, v);
    }
  });
  // Disjoint claims: ranks 0 and 1 each claimed exactly once.
  EXPECT_EQ(claimed_mask.load(), 3u);
  EXPECT_EQ(plan.stats().kills, 2u);
  EXPECT_FALSE(world.rank_dead(0));
  EXPECT_FALSE(world.rank_dead(1));
}

// PR 8 (death-path edge case): a rank that already finished its useful
// work dies on a late control message. The death is still detected and
// claimable promptly — wait_for_death doesn't depend on the corpse having
// pending protocol traffic.
TEST(FaultInjection, IdleRankDeathAfterCompletionIsClaimedPromptly) {
  World world(3);
  world.set_recoverable(1);
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(1, 99));
  world.set_fault_plan(&plan);
  world.run([&world](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> v = {7};
      c.send<int>(1, 5, v);   // real work
      c.send<int>(1, 99, v);  // late control message, kills on receipt
    } else if (c.rank() == 1) {
      EXPECT_EQ(c.recv(0, 5).as<int>()[0], 7);  // stream complete, now idle
      EXPECT_THROW((void)c.recv(0, 99), RankKilled);
      throw RankKilled(1);
    } else {
      const double t0 = WallTimer::now();
      auto dead = world.wait_for_death(5.0);
      const double elapsed = WallTimer::now() - t0;
      ASSERT_TRUE(dead.has_value());
      EXPECT_EQ(*dead, 1);
      EXPECT_LT(elapsed, 4.0);
      c.take_over(1);
    }
  });
  EXPECT_FALSE(world.rank_dead(1));
  EXPECT_EQ(plan.stats().kills, 1u);
}

TEST(FaultInjection, DuplicateIsDeliveredOnceAndDiscarded) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::duplicate_message(0, 1, 11));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      std::vector<int> a = {41}, b = {42};
      c.send<int>(1, 11, a);  // re-delivered in flight
      c.send<int>(1, 11, b);
      c.barrier();
    } else {
      // Payloads arrive exactly once, in order; the duplicated copy never
      // surfaces as a third message.
      EXPECT_EQ(c.recv(0, 11).as<int>()[0], 41);
      EXPECT_EQ(c.recv(0, 11).as<int>()[0], 42);
      c.barrier();
      EXPECT_FALSE(c.try_recv(0, 11).has_value());
    }
  });
  // duplicate_message is count-limited: only the first matching frame is
  // re-delivered, and that one extra copy is discarded by the seq ledger.
  EXPECT_EQ(plan.stats().duplicated, 1u);
  EXPECT_EQ(world.last_stats()[1].dup_discarded, 1u);
}

TEST(FaultInjection, DuplicateStormDeliversEachPayloadOnce) {
  // Every frame of the edge is re-delivered with a small extra delay (the
  // copies land *after* the originals were consumed); the receiver's seq
  // ledger must swallow all of them.
  constexpr int kMessages = 16;
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::duplicate_edge(/*edge=*/5, /*tag_stride=*/16,
                                     /*probability=*/1.0,
                                     /*extra_delay=*/0.002));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < kMessages; ++i) {
        std::vector<int> v = {100 + i};
        c.send<int>(1, 5 + 16 * i, v);
      }
      c.barrier();
    } else {
      for (int i = 0; i < kMessages; ++i)
        EXPECT_EQ(c.recv(0, 5 + 16 * i).as<int>()[0], 100 + i);
      c.barrier();
      // Wait out the duplicates' extra delay, then prove none surfaces.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      for (int i = 0; i < kMessages; ++i)
        EXPECT_FALSE(c.try_recv(0, 5 + 16 * i).has_value());
    }
  });
  EXPECT_EQ(plan.stats().duplicated, static_cast<std::uint64_t>(kMessages));
  EXPECT_EQ(world.last_stats()[1].dup_discarded,
            static_cast<std::uint64_t>(kMessages));
}

TEST(FaultInjection, JitterDelaysButDeliversIntact) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::jitter_edge(/*edge=*/3, /*tag_stride=*/16,
                                  /*scale=*/0.005, /*shape=*/1.5,
                                  /*cap=*/0.02));
  world.set_fault_plan(&plan);
  world.run([](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 8; ++i) {
        std::vector<int> v = {i};
        c.send<int>(1, 3 + 16 * i, v);
      }
    } else {
      // Blocking recv rides out the heavy-tailed delay; payloads intact.
      for (int i = 0; i < 8; ++i)
        EXPECT_EQ(c.recv(0, 3 + 16 * i).as<int>()[0], i);
    }
  });
  EXPECT_EQ(plan.stats().jittered, 8u);
}

TEST(FaultInjection, SlowFactorIsDeterministicPerRankAndCpi) {
  // The kSlow coin is keyed on (rank, cpi), not on call order: two plans
  // with the same seed agree per CPI no matter how threads interleave, and
  // an intermittent rule slows only a strict subset of the stream.
  FaultPlan a(/*seed=*/77), b(/*seed=*/77);
  auto rule = FaultPlan::slow_rank(/*rank=*/2, /*factor=*/8.0,
                                   /*probability=*/0.5);
  a.add(rule);
  b.add(rule);
  int slowed_cpis = 0;
  for (long long cpi = 0; cpi < 32; ++cpi) {
    const double fa = a.slow_factor_due(2, cpi);
    EXPECT_DOUBLE_EQ(fa, b.slow_factor_due(2, cpi));
    EXPECT_TRUE(fa == 1.0 || fa == 8.0);
    slowed_cpis += fa > 1.0 ? 1 : 0;
  }
  EXPECT_GT(slowed_cpis, 0);
  EXPECT_LT(slowed_cpis, 32);
  // A different rank never matches the rule.
  for (long long cpi = 0; cpi < 32; ++cpi)
    EXPECT_EQ(a.slow_factor_due(0, cpi), 1.0);
  EXPECT_EQ(a.stats().slowed, static_cast<std::uint64_t>(slowed_cpis));
}

TEST(FaultInjection, RankScopedComputeFlipFiresOnlyForItsRank) {
  // A rank-pinned rule neither fires for nor is used up by another rank
  // executing the same (task, cpi); both of its applications land on the
  // pinned rank (the original execution and the ABFT recompute).
  FaultPlan plan;
  plan.add_compute(FaultPlan::flip_stage(/*task=*/0, /*cpi=*/3, /*bit=*/12,
                                         /*max_applications=*/2,
                                         /*rank=*/2));
  int bit = -1;
  for (int attempt = 0; attempt < 2; ++attempt) {
    EXPECT_FALSE(plan.compute_flip_due(0, 3, /*rank=*/1, attempt, &bit));
    EXPECT_FALSE(plan.compute_flip_due(0, 3, /*rank=*/3, attempt, &bit));
  }
  EXPECT_EQ(bit, -1);
  EXPECT_FALSE(plan.compute_flip_due(0, 4, /*rank=*/2, 0, &bit));
  EXPECT_TRUE(plan.compute_flip_due(0, 3, /*rank=*/2, 0, &bit));
  EXPECT_EQ(bit, 12);
  EXPECT_TRUE(plan.compute_flip_due(0, 3, /*rank=*/2, 1, &bit));
  EXPECT_FALSE(plan.compute_flip_due(0, 3, /*rank=*/2, 0, &bit));
  EXPECT_EQ(plan.stats().flips, 2u);

  // The default (-1) still matches any rank.
  FaultPlan any;
  any.add_compute(FaultPlan::flip_stage(/*task=*/0, /*cpi=*/3));
  EXPECT_TRUE(any.compute_flip_due(0, 3, /*rank=*/5, 0, &bit));
}

// ---------------------------------------------------------------------------
// Owned frames: pooled buffers moved into the mailbox, read in place
// ---------------------------------------------------------------------------

// A pooled buffer holding `n` ints counting up from `first`.
Buffer counting(BufferPool& pool, std::size_t n, int first) {
  Buffer b = pool.take(n * sizeof(int));
  auto v = b.as<int>();
  std::iota(v.begin(), v.end(), first);
  return b;
}

void expect_counting(const Frame& f, std::size_t n, int first) {
  const auto v = f.as<int>();
  ASSERT_EQ(v.size(), n);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_EQ(v[i], first + static_cast<int>(i));
}

TEST(OwnedFrame, CorruptionWithinTheBudgetDeliversTheSendersBytes) {
  World world(2);
  FaultPlan plan;
  // Tag 1: the original and the first kMax - 1 refetches are corrupted, the
  // last refetch the budget allows arrives clean. Tag 2: one corruption
  // more than the budget repairs.
  plan.add(FaultPlan::corrupt_message(0, 1, 1, kMaxRetransmitAttempts));
  plan.add(FaultPlan::corrupt_message(0, 1, 2, kMaxRetransmitAttempts + 1));
  world.set_fault_plan(&plan);
  BufferPool pool;
  world.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, counting(pool, 256, 1000));
      c.send(1, 2, counting(pool, 256, 2000));
    } else {
      expect_counting(c.recv(0, 1), 256, 1000);
      EXPECT_EQ(c.recv_for(0, 2, 5.0).status, RecvStatus::kCorrupt);
    }
  });
  const auto& rx = world.last_stats()[1];
  EXPECT_EQ(rx.retry_histogram[1][kMaxRetransmitAttempts - 1], 1u);
  EXPECT_EQ(rx.retry_histogram[2][kMaxRetransmitAttempts], 1u);
  // The sender copied each frame once to corrupt it; every refetch is a
  // receiver-side copy of the pristine buffer.
  const std::uint64_t bytes = 256 * sizeof(int);
  EXPECT_EQ(world.last_stats()[0].copied_bytes[1], bytes);
  EXPECT_EQ(rx.copied_bytes[1], kMaxRetransmitAttempts * bytes);
  EXPECT_EQ(rx.copied_bytes[2], kMaxRetransmitAttempts * bytes);
  EXPECT_EQ(world.buffered_bytes(1), 0u);
  // Originals, corrupted copies and refetches all came back to the pool.
  EXPECT_EQ(pool.stats().free, pool.stats().allocated);
}

TEST(OwnedFrame, DuplicateCopyIsIndependentOfTheOriginal) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::duplicate_message(0, 1, 1));
  world.set_fault_plan(&plan);
  BufferPool pool;
  const std::size_t n = 64;
  world.run([&](Comm& c) {
    if (c.rank() == 0) {
      c.send(1, 1, counting(pool, n, 10));
      c.barrier();  // both copies queued
      (void)c.recv(1, 9);  // the original was consumed and dropped
      // Both blocks are back; overwriting one must not disturb anything
      // still in flight.
      EXPECT_EQ(pool.stats().free, 2u);
      c.send(1, 2, counting(pool, n, 500));
    } else {
      c.barrier();
      EXPECT_EQ(world.buffered_bytes(1), 2 * n * sizeof(int));
      expect_counting(c.recv(0, 1), n, 10);
      EXPECT_EQ(world.buffered_bytes(1), 0u);  // the duplicate was swept
      c.send<int>(0, 9, {});
      expect_counting(c.recv(0, 2), n, 500);
      EXPECT_FALSE(c.try_recv(0, 1).has_value());
    }
  });
  EXPECT_EQ(world.last_stats()[1].dup_discarded, 1u);
  EXPECT_EQ(world.last_stats()[0].copied_bytes[1], n * sizeof(int));
  EXPECT_EQ(world.last_stats()[0].copied_bytes[2], 0u);
  EXPECT_EQ(pool.stats().reused, 1u);
}

TEST(OwnedFrame, PooledBlockIsNotReusedWhileReferenced) {
  World world(2);
  BufferPool pool;
  world.run([&](Comm& c) {
    if (c.rank() == 0) {
      Buffer a = counting(pool, 32, 0);
      const std::byte* first = a.data();
      c.send(1, 1, std::move(a));
      (void)c.recv(1, 9);  // rank 1 holds the first frame
      Buffer b = pool.take(32 * sizeof(int));
      EXPECT_NE(b.data(), first);
      EXPECT_EQ(pool.stats().allocated, 2u);
      c.send(1, 2, std::move(b));
      (void)c.recv(1, 9);  // rank 1 dropped both frames
      EXPECT_EQ(pool.stats().free, 2u);
      EXPECT_EQ(pool.take(32 * sizeof(int)).size(), 32 * sizeof(int));
      EXPECT_EQ(pool.stats().reused, 1u);
    } else {
      {
        const Frame held = c.recv(0, 1);
        c.send<int>(0, 9, {});
        (void)c.recv(0, 2);
        expect_counting(held, 32, 0);  // still intact
      }
      c.send<int>(0, 9, {});
    }
  });
  EXPECT_EQ(pool.stats().allocated, 2u);
}

TEST(OwnedFrame, SendToBlackHoledRankReturnsTheBuffer) {
  World world(2);
  FaultPlan plan;
  plan.add(FaultPlan::kill_on_recv(1, 5));  // rank 1 is not recoverable
  world.set_fault_plan(&plan);
  BufferPool pool;
  world.run([&](Comm& c) {
    if (c.rank() == 1) {
      (void)c.recv(0, 5);  // dies here
      return;
    }
    while (!world.rank_dead(1))
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    c.send(1, 7, counting(pool, 128, 0));
    EXPECT_EQ(pool.stats().free, 1u);
    EXPECT_EQ(c.stats().messages_sent, 1u);
  });
  EXPECT_EQ(world.buffered_bytes(1), 0u);
}

TEST(OwnedFrame, SteadyStreamAllocatesNothingAfterWarmUp) {
  // Rounds of differently sized frames, as one producer edge sends to
  // several consumers: after the first round every take is a reuse.
  World world(2);
  BufferPool pool;
  constexpr int kRounds = 20, kPerRound = 4;
  BufferPool::Stats warm;
  world.run([&](Comm& c) {
    for (int round = 0; round < kRounds; ++round) {
      if (c.rank() == 0) {
        if (round == 1) warm = pool.stats();
        for (int i = 0; i < kPerRound; ++i)
          c.send(1, i, counting(pool, 1024 - 4 * i, round));
        (void)c.recv(1, 9);
      } else {
        for (int i = 0; i < kPerRound; ++i)
          expect_counting(c.recv(0, i), 1024 - 4 * i, round);
        c.send<int>(0, 9, {});
      }
    }
  });
  const auto end = pool.stats();
  EXPECT_EQ(warm.allocated, static_cast<std::uint64_t>(kPerRound));
  EXPECT_EQ(end.allocated, warm.allocated);
  EXPECT_EQ(end.reused, static_cast<std::uint64_t>((kRounds - 1) * kPerRound));
  EXPECT_EQ(end.free, static_cast<std::size_t>(kPerRound));
  for (const std::uint64_t b : world.last_stats()[0].copied_bytes)
    EXPECT_EQ(b, 0u);
  EXPECT_EQ(world.buffered_bytes(1), 0u);
}

}  // namespace
}  // namespace ppstap::comm
