// Deterministic fault injection for the message fabric. A FaultPlan picks a
// fault profile (loss/duplication/delay/corruption rates, burst windows,
// partitions, per-node stalls); a FaultInjector turns the plan plus a seed
// into per-send-attempt decisions.
//
// Determinism is the load-bearing property: every decision is a pure hash of
// (seed, from, to, per-pair sequence number, attempt number). No internal
// state, no clocks. Two runs with the same seed and the same per-pair message
// sequences therefore see the *identical* injection schedule — drops,
// duplicates, corruption, and the retransmissions they force — independent of
// thread interleaving. That is what lets the chaos harness assert that race
// reports under faults are byte-identical to the fault-free run and that
// fault counters reproduce from a single --fault-seed.
#ifndef CVM_FAULT_FAULT_H_
#define CVM_FAULT_FAULT_H_

#include <cstdint>
#include <optional>
#include <string>

#include "src/common/types.h"

namespace cvm::fault {

enum class FaultProfile : uint8_t {
  kOff,        // No injector; the network's clean path is byte-identical.
  kLossy,      // Independent per-frame loss + light duplication/delay.
  kBursty,     // Losses clustered into consecutive-sequence burst windows.
  kPartition,  // A node cut drops cross-cut traffic for a window, then heals.
  kStress,     // Everything at once: loss, dups, delays, corruption, stalls.
  kCrash,      // One seed-chosen node fail-stops at a barrier epoch.
};

// Returns nullopt for an unrecognized name ("off", "lossy", "bursty",
// "partition", "stress", "crash").
std::optional<FaultProfile> ParseProfile(const std::string& name);
const char* ProfileName(FaultProfile profile);

// "off|lossy|bursty|partition|stress|crash" — for CLI error messages, so an
// unknown profile name reports what would have been accepted.
const char* ValidProfileNames();

struct FaultPlan {
  FaultProfile profile = FaultProfile::kOff;
  uint64_t seed = 1;

  // Independent per-attempt probabilities. Drop, delay, and corruption are
  // mutually exclusive on one attempt (checked in that order); duplication
  // composes with a clean delivery.
  double drop_prob = 0;     // Data frame vanishes; sender retransmits.
  double dup_prob = 0;      // Frame delivered twice; receiver suppresses.
  double delay_prob = 0;    // Frame held and released late (stale duplicate).
  double corrupt_prob = 0;  // Frame fails its checksum; receiver quarantines.
  double ack_drop_prob = 0; // Ack lost; sender retransmits, receiver dedups.
  uint32_t max_delay_hops = 3;  // A held frame costs 1..max delay hops.

  // Bursty loss: sequence numbers are grouped into windows of burst_len;
  // a window is "bad" with probability burst_prob, and frames inside a bad
  // window lose their first burst_attempts transmission attempts.
  uint32_t burst_len = 0;
  double burst_prob = 0;
  uint32_t burst_attempts = 2;

  // Partition: nodes are split at a seed-derived cut; pairs crossing the cut
  // drop the first partition_attempts attempts of every frame whose sequence
  // number falls in [partition_seq_start, partition_seq_start +
  // partition_seq_len). Retransmission backoff models the heal.
  bool partition = false;
  uint64_t partition_seq_start = 0;
  uint64_t partition_seq_len = 0;
  uint32_t partition_attempts = 3;

  // Per-node stall windows: one seed-chosen node periodically "freezes" —
  // frames it originates during recurring sequence windows of stall_len out
  // of every stall_period lose their first stall_attempts attempts.
  uint32_t stall_period = 0;
  uint32_t stall_len = 0;
  uint32_t stall_attempts = 2;

  // Reliable-transport timeouts, in simulated nanoseconds. Retransmission
  // backoff for attempt a is min(rto_base_ns << a, rto_cap_ns). Zero means
  // "derive from the cost model" (DsmSystem fills these from CostParams, so
  // timeouts scale with the modeled network like every other delay).
  double rto_base_ns = 0;
  double rto_cap_ns = 0;
  double delay_hop_ns = 0;  // Simulated penalty per delay hop.

  // Retransmission bound: a frame that is still unacked after this many
  // attempts stops retrying and surfaces SendStatus::kPeerUnreachable to the
  // caller (the peer-suspicion verdict). Message-level profiles are tuned to
  // heal far below this bound, so a healthy peer is never suspected.
  uint32_t max_send_attempts = 512;

  // Crash fault: node `crash_node` fail-stops when it reaches the entry of
  // barrier `crash_epoch` — its application dies mid-epoch and the node goes
  // silent (no acks, no replies). crash_epoch < 0 disarms the crash.
  // crash_node < 0 picks a seed-derived victim (FaultInjector::crash_node()).
  // crash_reboot marks the failure transient: a service-level retry of the
  // same workload runs with the crash disarmed, modeling the node coming
  // back after reboot; permanent crashes recur on every retry.
  EpochId crash_epoch = -1;
  NodeId crash_node = kNoNode;
  bool crash_reboot = false;

  bool crash_enabled() const { return crash_epoch >= 0; }

  // A crash-armed plan needs the reliable transport (sequence numbers, acks,
  // bounded retransmission) even when no message-level faults are injected —
  // that is what turns a silent peer into a PeerUnreachable verdict.
  bool enabled() const { return profile != FaultProfile::kOff || crash_enabled(); }

  // Canonical plan for a profile. Rates are chosen so every profile stays at
  // or under ~5% frame loss — the envelope in which all five bundled apps
  // must produce race reports identical to the fault-free run.
  static FaultPlan FromProfile(FaultProfile profile, uint64_t seed);
};

// What the injector decided for one transmission attempt.
struct FaultDecision {
  bool deliver = true;      // False: the frame is lost in the network.
  bool duplicate = false;   // Deliver a second copy of the frame.
  bool corrupt = false;     // Deliver, but the checksum fails on receipt.
  uint32_t delay_hops = 0;  // >0: held; DelayNs(delay_hops) extra latency.
};

// Aggregate transport/fault counters, snapshotted via Network::fault_stats().
// Each send is a closed form over the injector's decisions for its (from,
// to, seq, attempt), so every field is a pure function of the fault seed and
// the per-pair message sequences (what the determinism test asserts),
// however the sending threads of different pairs interleave.
struct FaultStats {
  uint64_t data_frames = 0;       // Transmission attempts (incl. retransmits).
  uint64_t drops = 0;             // Frames the injector destroyed.
  uint64_t delayed = 0;           // Frames held past their retransmission.
  uint64_t dup_frames = 0;        // Injector-created duplicate deliveries.
  uint64_t dup_dropped = 0;       // Receiver-side duplicate suppressions
                                  // (a held frame's late copy included).
  uint64_t corrupted = 0;         // Frames quarantined on checksum failure.
  uint64_t acks_dropped = 0;      // Lost acks (force retransmit + dedup).
  uint64_t retransmits = 0;       // Timeout-driven resends.
  uint64_t unreachable = 0;       // Sends abandoned: peer dead or attempts exhausted.
  double backoff_ns = 0;          // Simulated time spent in retransmit backoff.
};

class FaultInjector {
 public:
  // num_nodes fixes the seed-derived partition cut and stall node.
  FaultInjector(FaultPlan plan, int num_nodes);

  const FaultPlan& plan() const { return plan_; }

  // Decision for transmission attempt `attempt` of the frame with per-pair
  // sequence number `seq` from `from` to `to`. Pure and thread-safe.
  FaultDecision OnSendAttempt(NodeId from, NodeId to, uint64_t seq,
                              uint32_t attempt) const;

  // Whether the ack for this (frame, attempt) is lost on the way back.
  bool DropAck(NodeId from, NodeId to, uint64_t seq, uint32_t attempt) const;

  // Capped exponential backoff before retransmission `attempt`.
  double BackoffNs(uint32_t attempt) const;

  // Simulated extra latency of a frame delayed by `hops` sends.
  double DelayNs(uint32_t hops) const;

  // Seed-derived topology choices, exposed for tests and the run header.
  // Nodes < partition_cut() form one side of the partition profile's cut.
  NodeId partition_cut() const { return partition_cut_; }
  NodeId stall_node() const { return stall_node_; }

  // The crash victim: plan.crash_node if pinned, else seed-derived. Only
  // meaningful when plan().crash_enabled().
  NodeId crash_node() const { return crash_node_; }

 private:
  const FaultPlan plan_;
  const int num_nodes_;
  NodeId partition_cut_ = 1;
  NodeId stall_node_ = 0;
  NodeId crash_node_ = 0;
};

}  // namespace cvm::fault

#endif  // CVM_FAULT_FAULT_H_
