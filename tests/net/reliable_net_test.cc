// Tests for the reliable transport the Network layers over the fault
// injector: exactly-once in-order delivery under loss/duplication/corruption,
// deterministic fault counters from a fixed seed (the property the chaos
// harness and --fault-seed reproduction rest on), and clean-path neutrality.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "src/fault/fault.h"
#include "src/net/network.h"

namespace cvm {
namespace {

Message Make(NodeId from, NodeId to, Payload payload) {
  Message m;
  m.from = from;
  m.to = to;
  m.payload = std::move(payload);
  return m;
}

PageRequestMsg Req(int page) {
  PageRequestMsg req;
  req.page = page;
  return req;
}

// Small simulated timeouts keep test run time negligible; values do not
// affect behavior, only the penalty accounting.
fault::FaultPlan TestPlan(fault::FaultProfile profile, uint64_t seed) {
  fault::FaultPlan plan = fault::FaultPlan::FromProfile(profile, seed);
  plan.rto_base_ns = 100;
  plan.rto_cap_ns = 1600;
  plan.delay_hop_ns = 50;
  return plan;
}

TEST(ReliableNetTest, ExactlyOnceInOrderUnderHeavyMixedFaults) {
  fault::FaultPlan plan = TestPlan(fault::FaultProfile::kStress, 3);
  plan.drop_prob = 0.2;
  plan.dup_prob = 0.1;
  plan.delay_prob = 0.05;
  plan.corrupt_prob = 0.05;
  plan.ack_drop_prob = 0.1;
  const fault::FaultInjector injector(plan, 2);
  Network net(2);
  net.AttachFaultInjector(&injector);

  const int kMessages = 500;
  for (int i = 0; i < kMessages; ++i) {
    net.Send(Make(0, 1, Req(i)));
  }
  for (int i = 0; i < kMessages; ++i) {
    auto msg = net.TryRecv(1);
    ASSERT_TRUE(msg.has_value()) << "message " << i << " missing";
    EXPECT_EQ(std::get<PageRequestMsg>(msg->payload).page, i);
  }
  EXPECT_FALSE(net.TryRecv(1).has_value());

  const fault::FaultStats stats = net.fault_stats();
  EXPECT_GT(stats.drops, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.dup_dropped, 0u);
  EXPECT_GT(stats.corrupted, 0u);
  EXPECT_GT(stats.acks_dropped, 0u);
  EXPECT_GT(stats.backoff_ns, 0.0);
}

// Drives a fixed send sequence through a fresh network + injector and
// returns the fault counters. Single-threaded, so the per-pair sequence
// numbers are identical across invocations — counters must be too.
fault::FaultStats DriveFixedSequence(uint64_t seed) {
  const fault::FaultPlan plan = TestPlan(fault::FaultProfile::kStress, seed);
  const fault::FaultInjector injector(plan, 4);
  Network net(4);
  net.AttachFaultInjector(&injector);
  for (int round = 0; round < 200; ++round) {
    net.Send(Make(0, 1, Req(round)));
    net.Send(Make(1, 2, Req(round)));
    net.Send(Make(2, 3, Req(round)));
    net.Send(Make(3, 0, Req(round)));
    net.Send(Make(0, 2, Req(round)));
  }
  return net.fault_stats();
}

TEST(ReliableNetTest, SameSeedReproducesIdenticalFaultCounters) {
  const fault::FaultStats a = DriveFixedSequence(1234);
  const fault::FaultStats b = DriveFixedSequence(1234);
  EXPECT_EQ(a.data_frames, b.data_frames);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.dup_frames, b.dup_frames);
  EXPECT_EQ(a.dup_dropped, b.dup_dropped);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.acks_dropped, b.acks_dropped);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.backoff_ns, b.backoff_ns);
}

// Exact counters for a fixed send sequence per seed. Every field is a pure
// function of the seed and the per-pair sequences, so any change to how a
// send walks its attempts shows here.
TEST(ReliableNetTest, FixedSequenceCountersArePinned) {
  struct Pinned {
    uint64_t seed, frames, drops, delayed, dup_frames, dup_dropped, corrupted, acks_dropped,
        retransmits;
    double backoff_ns;
  };
  for (const Pinned& want : {Pinned{1234, 1163, 110, 25, 19, 62, 10, 18, 163, 23200},
                             Pinned{1, 1172, 129, 14, 17, 52, 8, 21, 172, 21800},
                             Pinned{2, 1162, 121, 15, 14, 46, 9, 17, 162, 21400}}) {
    const fault::FaultStats got = DriveFixedSequence(want.seed);
    EXPECT_EQ(got.data_frames, want.frames) << "seed " << want.seed;
    EXPECT_EQ(got.drops, want.drops) << "seed " << want.seed;
    EXPECT_EQ(got.delayed, want.delayed) << "seed " << want.seed;
    EXPECT_EQ(got.dup_frames, want.dup_frames) << "seed " << want.seed;
    EXPECT_EQ(got.dup_dropped, want.dup_dropped) << "seed " << want.seed;
    EXPECT_EQ(got.corrupted, want.corrupted) << "seed " << want.seed;
    EXPECT_EQ(got.acks_dropped, want.acks_dropped) << "seed " << want.seed;
    EXPECT_EQ(got.retransmits, want.retransmits) << "seed " << want.seed;
    EXPECT_EQ(got.backoff_ns, want.backoff_ns) << "seed " << want.seed;
    EXPECT_EQ(got.unreachable, 0u) << "seed " << want.seed;
  }
}

TEST(ReliableNetTest, DifferentSeedsProduceDifferentSchedules) {
  const fault::FaultStats a = DriveFixedSequence(1);
  const fault::FaultStats b = DriveFixedSequence(2);
  EXPECT_TRUE(a.drops != b.drops || a.dup_frames != b.dup_frames ||
              a.corrupted != b.corrupted || a.acks_dropped != b.acks_dropped ||
              a.retransmits != b.retransmits);
}

TEST(ReliableNetTest, EveryFrameDuplicatedStillDeliversOnce) {
  fault::FaultPlan plan = TestPlan(fault::FaultProfile::kLossy, 5);
  plan.drop_prob = 0;
  plan.dup_prob = 1.0;
  plan.delay_prob = 0;
  plan.ack_drop_prob = 0;
  const fault::FaultInjector injector(plan, 2);
  Network net(2);
  net.AttachFaultInjector(&injector);

  const int kMessages = 100;
  for (int i = 0; i < kMessages; ++i) {
    net.Send(Make(0, 1, Req(i)));
  }
  for (int i = 0; i < kMessages; ++i) {
    auto msg = net.TryRecv(1);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get<PageRequestMsg>(msg->payload).page, i);
  }
  EXPECT_FALSE(net.TryRecv(1).has_value());

  const fault::FaultStats stats = net.fault_stats();
  EXPECT_EQ(stats.dup_frames, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.dup_dropped, static_cast<uint64_t>(kMessages));
  EXPECT_EQ(stats.retransmits, 0u);
  // Wire accounting counts both copies of each frame.
  EXPECT_EQ(net.stats().messages, static_cast<uint64_t>(2 * kMessages));
}

TEST(ReliableNetTest, CorruptedFramesAreQuarantinedAndRetransmitted) {
  fault::FaultPlan plan = TestPlan(fault::FaultProfile::kLossy, 6);
  plan.drop_prob = 0;
  plan.dup_prob = 0;
  plan.delay_prob = 0;
  plan.ack_drop_prob = 0;
  plan.corrupt_prob = 0.5;
  const fault::FaultInjector injector(plan, 2);
  Network net(2);
  net.AttachFaultInjector(&injector);

  const int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    net.Send(Make(0, 1, Req(i)));
  }
  for (int i = 0; i < kMessages; ++i) {
    auto msg = net.TryRecv(1);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get<PageRequestMsg>(msg->payload).page, i);
  }
  const fault::FaultStats stats = net.fault_stats();
  EXPECT_GT(stats.corrupted, 0u);
  // Every quarantined frame forces a retransmission.
  EXPECT_EQ(stats.retransmits, stats.corrupted);
}

TEST(ReliableNetTest, DisabledPlanKeepsCleanPathAndZeroFaultStats) {
  const fault::FaultPlan off = fault::FaultPlan::FromProfile(fault::FaultProfile::kOff, 1);
  const fault::FaultInjector injector(off, 2);
  Network net(2);
  net.AttachFaultInjector(&injector);  // Disabled plan: no-op.
  for (int i = 0; i < 50; ++i) {
    const SendOutcome outcome = net.Send(Make(0, 1, Req(i)));
    EXPECT_TRUE(outcome.delivered());
    EXPECT_EQ(outcome.penalty_ns, 0.0);
  }
  EXPECT_EQ(net.stats().messages, 50u);
  const fault::FaultStats stats = net.fault_stats();
  EXPECT_EQ(stats.data_frames, 0u);
  EXPECT_EQ(stats.drops, 0u);
  EXPECT_EQ(stats.retransmits, 0u);
}

TEST(ReliableNetTest, RetransmissionChargesSimulatedPenalty) {
  fault::FaultPlan plan = TestPlan(fault::FaultProfile::kLossy, 8);
  plan.drop_prob = 0.5;
  const fault::FaultInjector injector(plan, 2);
  Network net(2);
  net.AttachFaultInjector(&injector);
  double total_penalty = 0;
  for (int i = 0; i < 100; ++i) {
    total_penalty += net.Send(Make(0, 1, Req(i))).penalty_ns;
  }
  EXPECT_GT(total_penalty, 0.0);
  EXPECT_EQ(total_penalty, net.fault_stats().backoff_ns);
}

// Two threads, each the one sender of its own pair into a shared inbox (the
// transport's contract: one sending thread per pair).
TEST(ReliableNetTest, ConcurrentSendersOnDistinctPairsKeepPerPairFifo) {
  fault::FaultPlan plan = TestPlan(fault::FaultProfile::kStress, 21);
  plan.drop_prob = 0.1;
  plan.ack_drop_prob = 0.05;
  const fault::FaultInjector injector(plan, 3);
  Network net(3);
  net.AttachFaultInjector(&injector);

  const int kPerSender = 200;
  std::thread sender_a([&] {
    for (int i = 0; i < kPerSender; ++i) {
      net.Send(Make(0, 1, Req(i)));
    }
  });
  std::thread sender_b([&] {
    for (int i = 0; i < kPerSender; ++i) {
      net.Send(Make(2, 1, Req(i)));
    }
  });
  sender_a.join();
  sender_b.join();

  int next_from_a = 0;
  int next_from_b = 0;
  for (int i = 0; i < 2 * kPerSender; ++i) {
    auto msg = net.TryRecv(1);
    ASSERT_TRUE(msg.has_value()) << "message " << i << " missing";
    const int page = std::get<PageRequestMsg>(msg->payload).page;
    if (msg->from == 0) {
      EXPECT_EQ(page, next_from_a++);
    } else {
      ASSERT_EQ(msg->from, 2);
      EXPECT_EQ(page, next_from_b++);
    }
  }
  EXPECT_EQ(next_from_a, kPerSender);
  EXPECT_EQ(next_from_b, kPerSender);
  EXPECT_FALSE(net.TryRecv(1).has_value());
}

TEST(ReliableNetTest, DeadPeerSurfacesBoundedUnreachableVerdict) {
  fault::FaultPlan plan = TestPlan(fault::FaultProfile::kLossy, 9);
  plan.drop_prob = 0;  // Deterministic: death alone triggers the verdict.
  const fault::FaultInjector injector(plan, 2);
  Network net(2);
  net.AttachFaultInjector(&injector);

  EXPECT_FALSE(net.NodeDead(1));
  net.MarkNodeDead(1);
  EXPECT_TRUE(net.NodeDead(1));

  const SendOutcome outcome = net.Send(Make(0, 1, Req(0)));
  EXPECT_TRUE(outcome.unreachable());
  EXPECT_FALSE(outcome.delivered());
  // One suspicion timeout is billed, not an unbounded retransmission storm.
  EXPECT_GT(outcome.penalty_ns, 0.0);
  EXPECT_LE(outcome.penalty_ns, plan.rto_cap_ns);
  EXPECT_EQ(net.fault_stats().unreachable, 1u);
  EXPECT_FALSE(net.TryRecv(1).has_value());

  // A dead sender's frames go nowhere either.
  const SendOutcome from_dead = net.Send(Make(1, 0, Req(1)));
  EXPECT_TRUE(from_dead.unreachable());
  EXPECT_FALSE(net.TryRecv(0).has_value());
}

TEST(ReliableNetTest, ExhaustedAttemptBudgetReturnsUnreachableInsteadOfAborting) {
  fault::FaultPlan plan = TestPlan(fault::FaultProfile::kLossy, 10);
  plan.drop_prob = 1.0;  // Every data frame lost: the budget must bound retries.
  plan.max_send_attempts = 4;
  const fault::FaultInjector injector(plan, 2);
  Network net(2);
  net.AttachFaultInjector(&injector);

  const SendOutcome outcome = net.Send(Make(0, 1, Req(0)));
  EXPECT_TRUE(outcome.unreachable());
  EXPECT_EQ(outcome.attempts, 4u);
  EXPECT_EQ(net.fault_stats().drops, 4u);
  EXPECT_EQ(net.fault_stats().unreachable, 1u);
  EXPECT_FALSE(net.TryRecv(1).has_value());
}

TEST(ReliableNetTest, DelayedFramesResurfaceAsSuppressedDuplicates) {
  fault::FaultPlan plan = TestPlan(fault::FaultProfile::kLossy, 13);
  plan.drop_prob = 0;
  plan.dup_prob = 0;
  plan.ack_drop_prob = 0;
  plan.delay_prob = 0.3;
  plan.max_delay_hops = 2;
  const fault::FaultInjector injector(plan, 2);
  Network net(2);
  net.AttachFaultInjector(&injector);
  const int kMessages = 200;
  for (int i = 0; i < kMessages; ++i) {
    net.Send(Make(0, 1, Req(i)));
  }
  for (int i = 0; i < kMessages; ++i) {
    auto msg = net.TryRecv(1);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(std::get<PageRequestMsg>(msg->payload).page, i);
  }
  const fault::FaultStats stats = net.fault_stats();
  EXPECT_GT(stats.delayed, 0u);
  // A held frame's sequence number is retransmitted and delivered before the
  // held copy surfaces, so every held copy is suppressed as a duplicate.
  EXPECT_EQ(stats.dup_dropped, stats.delayed);
}

// An abandoned sequence number leaves no gap for later frames to wait on:
// the next send on the pair lands in the inbox at once.
TEST(ReliableNetTest, FrameAfterAnExhaustedSendIsDelivered) {
  fault::FaultPlan plan = TestPlan(fault::FaultProfile::kLossy, 14);
  plan.drop_prob = 0;
  plan.dup_prob = 0;
  plan.delay_prob = 0;
  plan.ack_drop_prob = 0;
  plan.partition = true;  // Drops the first attempt of sequence number 0.
  plan.partition_seq_start = 0;
  plan.partition_seq_len = 1;
  plan.partition_attempts = 1;
  plan.max_send_attempts = 1;
  const fault::FaultInjector injector(plan, 2);
  ASSERT_EQ(injector.partition_cut(), 1);
  Network net(2);
  net.AttachFaultInjector(&injector);

  EXPECT_TRUE(net.Send(Make(0, 1, Req(0))).unreachable());
  EXPECT_FALSE(net.TryRecv(1).has_value());
  EXPECT_TRUE(net.Send(Make(0, 1, Req(1))).delivered());
  auto msg = net.TryRecv(1);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(std::get<PageRequestMsg>(msg->payload).page, 1);
  EXPECT_FALSE(net.TryRecv(1).has_value());
  EXPECT_EQ(net.fault_stats().unreachable, 1u);
}

}  // namespace
}  // namespace cvm
