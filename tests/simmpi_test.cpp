// Tests for the network model and the replay engine: rendezvous timing
// math, collective synchronization, deadlock detection, comm-trace
// timelines, and bit-identity with the round-robin oracle engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <utility>

#include "reference_replay.hpp"
#include "simmpi/network.hpp"
#include "simmpi/replay.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pmacx {
namespace {

using simmpi::NetworkModel;
using simmpi::RankTimeline;
using simmpi::replay;
using trace::CommEvent;
using trace::CommOp;

NetworkModel flat_network() {
  NetworkModel net;
  net.latency_s = 1.0;               // big round numbers: exact arithmetic
  net.bandwidth_bytes_per_s = 100.0;
  net.per_stage_overhead_s = 0.0;
  return net;
}

/// A hand-built event whose compute burst is given in seconds: views()
/// replays every rank at one second per unit.
CommEvent event(CommOp op, std::int32_t peer, std::uint64_t bytes, double compute) {
  return {op, peer, bytes, compute};
}

std::vector<RankTimeline> views(const std::vector<trace::CommTrace>& ranks) {
  return simmpi::timelines_from_comm(ranks, std::vector<double>(ranks.size(), 1.0));
}

// -------------------------------------------------------------- network ----

TEST(NetworkTest, P2pTimeIsLatencyPlusTransfer) {
  EXPECT_DOUBLE_EQ(flat_network().p2p_time(200), 1.0 + 2.0);
}

TEST(NetworkTest, BarrierScalesLogarithmically) {
  const NetworkModel net = flat_network();
  const double t4 = net.collective_time(CommOp::Barrier, 0, 4);
  const double t16 = net.collective_time(CommOp::Barrier, 0, 16);
  EXPECT_DOUBLE_EQ(t16, 2.0 * t4);  // log2(16)=4 vs log2(4)=2 stages
}

TEST(NetworkTest, SmallAllreduceCostsTwoTreeTraversals) {
  const NetworkModel net = flat_network();
  EXPECT_DOUBLE_EQ(net.collective_time(CommOp::Allreduce, 100, 4),
                   2.0 * net.collective_time(CommOp::Reduce, 100, 4));
}

TEST(NetworkTest, LargeAllreduceSwitchesToRing) {
  NetworkModel net = flat_network();
  net.allreduce_ring_threshold_bytes = 1000;
  const std::uint64_t bytes = 1'000'000;
  const std::uint32_t ranks = 64;
  const double tree = 2.0 * 6.0 * net.p2p_time(bytes);  // 2·log2(64) full-payload stages
  const double ring = 2.0 * 63.0 *
                      (net.latency_s + static_cast<double>(bytes) / ranks /
                                           net.bandwidth_bytes_per_s);
  EXPECT_DOUBLE_EQ(net.collective_time(CommOp::Allreduce, bytes, ranks),
                   std::min(tree, ring));
  EXPECT_LT(ring, tree);  // the switch actually matters at this size
}

TEST(NetworkTest, SingleRankCollectiveIsOverheadOnly) {
  NetworkModel net = flat_network();
  net.per_stage_overhead_s = 0.25;
  EXPECT_DOUBLE_EQ(net.collective_time(CommOp::Allreduce, 1 << 20, 1), 0.25);
}

TEST(NetworkTest, P2pOpRejectedAsCollective) {
  EXPECT_THROW(flat_network().collective_time(CommOp::Send, 0, 4), util::Error);
}

// --------------------------------------------------------------- replay ----

TEST(ReplayTest, RendezvousTimingExact) {
  // Rank 0 computes 5s then sends 200 B; rank 1 computes 2s then receives.
  // Match at max(5,2)=5, transfer 1+2=3 → both finish at 8.
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 1, 200, 5.0));
  tl[1].events.push_back(event(CommOp::Recv, 0, 200, 2.0));
  const auto result = replay(views(tl), flat_network());
  EXPECT_DOUBLE_EQ(result.ranks[0].finish_time, 8.0);
  EXPECT_DOUBLE_EQ(result.ranks[1].finish_time, 8.0);
  EXPECT_DOUBLE_EQ(result.ranks[0].comm_seconds, 3.0);  // blocked 5→8
  EXPECT_DOUBLE_EQ(result.ranks[1].comm_seconds, 6.0);  // blocked 2→8
  EXPECT_DOUBLE_EQ(result.runtime, 8.0);
}

TEST(ReplayTest, TailComputeCounted) {
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 1, 0, 1.0));
  tl[0].tail_compute_units = 10.0;
  tl[1].events.push_back(event(CommOp::Recv, 0, 0, 1.0));
  const auto result = replay(views(tl), flat_network());
  EXPECT_DOUBLE_EQ(result.ranks[0].finish_time, 1.0 + 1.0 + 10.0);
  EXPECT_DOUBLE_EQ(result.ranks[0].compute_seconds, 11.0);
}

TEST(ReplayTest, NegativeOrNanTailRejected) {
  for (const double tail : {-5.0, std::nan("")}) {
    std::vector<trace::CommTrace> tl(2);
    tl[0].events.push_back(event(CommOp::Barrier, -1, 0, 1.0));
    tl[0].tail_compute_units = tail;
    tl[1].events.push_back(event(CommOp::Barrier, -1, 0, 1.0));
    EXPECT_THROW(replay(views(tl), flat_network()), util::Error) << tail;
  }
}

TEST(ReplayTest, MultipleMessagesMatchInOrder) {
  // Two sends from 0 to 1 match the two recvs in order.
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 1, 100, 1.0));
  tl[0].events.push_back(event(CommOp::Send, 1, 100, 0.0));
  tl[1].events.push_back(event(CommOp::Recv, 0, 100, 0.0));
  tl[1].events.push_back(event(CommOp::Recv, 0, 100, 0.0));
  const auto result = replay(views(tl), flat_network());
  // First match: max(1,0)+2=3; second: max(3,3)+2=5.
  EXPECT_DOUBLE_EQ(result.runtime, 5.0);
}

TEST(ReplayTest, BarrierSynchronizesAllRanks) {
  std::vector<trace::CommTrace> tl(4);
  for (std::size_t r = 0; r < 4; ++r)
    tl[r].events.push_back(event(CommOp::Barrier, -1, 0, static_cast<double>(r)));
  const auto result = replay(views(tl), flat_network());
  // All wait for rank 3 (arrives at 3), plus 2 stages × latency 1.
  for (const auto& rank : result.ranks) EXPECT_DOUBLE_EQ(rank.finish_time, 5.0);
}

TEST(ReplayTest, CollectiveMismatchDetected) {
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Barrier, -1, 0, 0.0));
  tl[1].events.push_back(event(CommOp::Allreduce, -1, 8, 0.0));
  EXPECT_THROW(replay(views(tl), flat_network()), util::Error);
}

TEST(ReplayTest, DeadlockDetected) {
  // Both ranks send first: rendezvous semantics deadlock.
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 1, 8, 0.0));
  tl[0].events.push_back(event(CommOp::Recv, 1, 8, 0.0));
  tl[1].events.push_back(event(CommOp::Send, 0, 8, 0.0));
  tl[1].events.push_back(event(CommOp::Recv, 0, 8, 0.0));
  try {
    replay(views(tl), flat_network());
    FAIL() << "expected deadlock";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(ReplayTest, DeadlockNamesOnlyTheStuckRanks) {
  // Ranks 0 and 1 both send first (rendezvous); ranks 2 and 3 exchange
  // correctly and finish.
  std::vector<trace::CommTrace> tl(4);
  tl[0].events.push_back(event(CommOp::Send, 1, 8, 0.0));
  tl[0].events.push_back(event(CommOp::Recv, 1, 8, 0.0));
  tl[1].events.push_back(event(CommOp::Send, 0, 8, 0.0));
  tl[1].events.push_back(event(CommOp::Recv, 0, 8, 0.0));
  tl[2].events.push_back(event(CommOp::Send, 3, 8, 0.0));
  tl[2].events.push_back(event(CommOp::Recv, 3, 8, 0.0));
  tl[3].events.push_back(event(CommOp::Recv, 2, 8, 0.0));
  tl[3].events.push_back(event(CommOp::Send, 2, 8, 0.0));
  try {
    replay(views(tl), flat_network());
    FAIL() << "expected deadlock";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("communication deadlock: 2 rank(s) stuck (first: 0,1)"),
              std::string::npos)
        << e.what();
  }
}

TEST(ReplayTest, BarrierLastArrivalIsRankZero) {
  // Rank 0 first waits for rank 3's message, so it reaches the barrier
  // after every other rank: its arrival completes the barrier for all.
  std::vector<trace::CommTrace> tl(4);
  tl[0].events.push_back(event(CommOp::Recv, 3, 100, 0.0));
  tl[0].events.push_back(event(CommOp::Barrier, -1, 0, 0.5));
  tl[1].events.push_back(event(CommOp::Barrier, -1, 0, 2.0));
  tl[2].events.push_back(event(CommOp::Barrier, -1, 0, 1.0));
  tl[3].events.push_back(event(CommOp::Send, 0, 100, 1.0));
  tl[3].events.push_back(event(CommOp::Barrier, -1, 0, 0.0));
  const auto result = replay(views(tl), flat_network());
  // Match at max(1, 0) + 2 = 3; rank 0 arrives at 3.5; barrier = 2 stages.
  for (const auto& rank : result.ranks) EXPECT_EQ(rank.finish_time, 5.5);
  EXPECT_EQ(result.ranks[0].comm_seconds, 3.0 + 2.0);
  EXPECT_EQ(result.ranks[0].compute_seconds, 0.5);
  EXPECT_EQ(result.ranks[1].comm_seconds, 3.5);
  EXPECT_EQ(result.ranks[2].comm_seconds, 4.5);
  EXPECT_EQ(result.ranks[3].comm_seconds, 2.0 + 2.5);
  EXPECT_EQ(result.runtime, 5.5);
}

TEST(ReplayTest, SelfSendRejected) {
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 0, 8, 0.0));
  EXPECT_THROW(replay(views(tl), flat_network()), util::Error);
}

TEST(ReplayTest, PeerOutOfRangeRejected) {
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 7, 8, 0.0));
  EXPECT_THROW(replay(views(tl), flat_network()), util::Error);
}

TEST(ReplayTest, PureComputeRun) {
  std::vector<trace::CommTrace> tl(3);
  for (std::size_t r = 0; r < 3; ++r) tl[r].tail_compute_units = 2.0 + r;
  const auto result = replay(views(tl), flat_network());
  EXPECT_DOUBLE_EQ(result.runtime, 4.0);
}

TEST(ReplayTest, DeterministicAcrossCalls) {
  std::vector<trace::CommTrace> tl(4);
  for (std::size_t r = 0; r < 4; ++r) {
    tl[r].events.push_back(event(CommOp::Allreduce, -1, 64, 1.0 + 0.1 * r));
    tl[r].events.push_back(event(CommOp::Barrier, -1, 0, 0.5));
  }
  const auto a = replay(views(tl), flat_network());
  const auto b = replay(views(tl), flat_network());
  EXPECT_EQ(a.runtime, b.runtime);
  for (std::size_t r = 0; r < 4; ++r)
    EXPECT_EQ(a.ranks[r].finish_time, b.ranks[r].finish_time);
}

TEST(ReplayTest, TimelinesFromCommScalesUnits) {
  std::vector<trace::CommTrace> traces(2);
  for (std::uint32_t r = 0; r < 2; ++r) {
    traces[r].rank = r;
    traces[r].core_count = 2;
    traces[r].events.push_back({CommOp::Barrier, -1, 0, 100.0});
    traces[r].tail_compute_units = 50.0;
  }
  const std::vector<double> scales = {0.01, 0.02};
  const auto timelines = simmpi::timelines_from_comm(traces, scales);
  EXPECT_EQ(timelines[1].events.data(), traces[1].events.data());  // a view, not a copy
  EXPECT_DOUBLE_EQ(timelines[0].compute_seconds_before(0), 1.0);
  EXPECT_DOUBLE_EQ(timelines[1].compute_seconds_before(0), 2.0);
  EXPECT_DOUBLE_EQ(timelines[1].tail_compute_seconds(), 1.0);
}

TEST(ReplayTest, ViewsOutliveTheirScales) {
  // Each view copies its rank's scale, so the scales may be freed before
  // replay runs; ASan reports a view that still points into them.
  std::vector<trace::CommTrace> traces(4);
  for (std::uint32_t r = 0; r < 4; ++r) {
    const auto next = static_cast<std::int32_t>((r + 1) % 4);
    const auto prev = static_cast<std::int32_t>((r + 3) % 4);
    traces[r].events.push_back(event(CommOp::Barrier, -1, 0, 100.0 + 10.0 * r));
    traces[r].events.push_back(event(CommOp::Send, next, 64, 7.0));
    traces[r].events.push_back(event(CommOp::Recv, prev, 64, 3.0));
    traces[r].tail_compute_units = 50.0 + r;
  }
  NetworkModel net = flat_network();
  net.eager_threshold_bytes = 1024;
  const std::vector<double> live = {0.01, 0.02, 0.03, 0.05};
  const simmpi::ReplayResult expected = replay(simmpi::timelines_from_comm(traces, live), net);

  std::vector<RankTimeline> timelines;
  {
    const std::vector<double> scales = live;
    timelines = simmpi::timelines_from_comm(traces, scales);
  }
  const simmpi::ReplayResult actual = replay(timelines, net);
  EXPECT_EQ(actual.runtime, expected.runtime);
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(actual.ranks[r].finish_time, expected.ranks[r].finish_time);
    EXPECT_EQ(actual.ranks[r].compute_seconds, expected.ranks[r].compute_seconds);
    EXPECT_EQ(actual.ranks[r].comm_seconds, expected.ranks[r].comm_seconds);
  }
}

TEST(ReplayTest, EmptyInputRejected) {
  EXPECT_THROW(replay({}, flat_network()), util::Error);
}

// ---------------------------------------------------------------- torus ----

TEST(TorusTest, HopDistances) {
  NetworkModel net = flat_network();
  net.torus.enabled = true;
  net.torus.dims = {4, 4, 2};  // 32 nodes
  EXPECT_EQ(net.torus_hops(0, 0), 0u);
  EXPECT_EQ(net.torus_hops(0, 1), 1u);        // x neighbour
  EXPECT_EQ(net.torus_hops(0, 3), 1u);        // x wrap-around
  EXPECT_EQ(net.torus_hops(0, 4), 1u);        // y neighbour
  EXPECT_EQ(net.torus_hops(0, 16), 1u);       // z neighbour
  // Opposite corner: (2, 2, 1) away = 2 + 2 + 1.
  EXPECT_EQ(net.torus_hops(0, 2 + 2 * 4 + 1 * 16), 5u);
  // Ranks beyond the node count wrap.
  EXPECT_EQ(net.torus_hops(0, 32), 0u);
}

TEST(TorusTest, DisabledIsZeroHops) {
  EXPECT_EQ(flat_network().torus_hops(0, 999), 0u);
}

TEST(TorusTest, DistantPairsPayMoreLatency) {
  NetworkModel net = flat_network();
  net.torus.enabled = true;
  net.torus.dims = {8, 8, 8};
  net.torus.per_hop_latency_s = 0.5;
  const double near = net.p2p_time_between(0, 1, 100);
  const double far = net.p2p_time_between(0, 4 + 4 * 8 + 4 * 64, 100);  // 12 hops
  EXPECT_DOUBLE_EQ(near, net.p2p_time(100) + 0.5);
  EXPECT_DOUBLE_EQ(far, net.p2p_time(100) + 12 * 0.5);
}

TEST(TorusTest, ReplayChargesHops) {
  NetworkModel net = flat_network();
  net.torus.enabled = true;
  net.torus.dims = {16, 1, 1};
  net.torus.per_hop_latency_s = 1.0;
  // Rank 0 sends to rank 8: 8 hops on the 16-ring → +8 s over the base.
  std::vector<trace::CommTrace> tl(16);
  tl[0].events.push_back(event(CommOp::Send, 8, 100, 0.0));
  tl[8].events.push_back(event(CommOp::Recv, 0, 100, 0.0));
  const auto result = replay(views(tl), net);
  EXPECT_DOUBLE_EQ(result.ranks[8].finish_time, net.p2p_time(100) + 8.0);
}

// ---------------------------------------------------------------- eager ----

TEST(EagerTest, SenderContinuesWithoutReceiver) {
  NetworkModel net = flat_network();
  net.eager_threshold_bytes = 1024;
  net.per_stage_overhead_s = 0.5;
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 1, 200, 1.0));  // eager (<=1024)
  tl[0].tail_compute_units = 10.0;
  tl[1].events.push_back(event(CommOp::Recv, 0, 200, 50.0));  // posts very late
  const auto result = replay(views(tl), net);
  // Sender: 1.0 compute + 0.5 buffer deposit + 10 tail = 11.5, NOT waiting
  // for the receive at t=50.
  EXPECT_DOUBLE_EQ(result.ranks[0].finish_time, 11.5);
  // Receiver: message landed at 1 + (1 + 2) = 4 < 50 → no wait.
  EXPECT_DOUBLE_EQ(result.ranks[1].finish_time, 50.0);
}

TEST(EagerTest, ReceiverWaitsForInFlightMessage) {
  NetworkModel net = flat_network();
  net.eager_threshold_bytes = 1024;
  net.per_stage_overhead_s = 0.0;
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 1, 200, 5.0));
  tl[1].events.push_back(event(CommOp::Recv, 0, 200, 1.0));  // posts early
  const auto result = replay(views(tl), net);
  // Message lands at 5 + 3 = 8; the early receiver blocks 1 → 8.
  EXPECT_DOUBLE_EQ(result.ranks[1].finish_time, 8.0);
  EXPECT_DOUBLE_EQ(result.ranks[1].comm_seconds, 7.0);
  EXPECT_DOUBLE_EQ(result.ranks[0].finish_time, 5.0);
}

TEST(EagerTest, ThreeSendsQueueOnOneChannelInOrder) {
  // Rank 0 deposits three eager messages of different sizes before rank 1
  // posts its first receive; the receives must take them first-in first-out.
  NetworkModel net = flat_network();
  net.eager_threshold_bytes = 1024;
  net.per_stage_overhead_s = 0.5;
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 1, 300, 1.0));  // lands 1.0 + 4.0 = 5.0
  tl[0].events.push_back(event(CommOp::Send, 1, 100, 0.0));  // lands 1.5 + 2.0 = 3.5
  tl[0].events.push_back(event(CommOp::Send, 1, 50, 0.0));   // lands 2.0 + 1.5 = 3.5
  tl[1].events.push_back(event(CommOp::Recv, 0, 300, 3.25));
  tl[1].events.push_back(event(CommOp::Recv, 0, 100, 1.0));
  tl[1].events.push_back(event(CommOp::Recv, 0, 50, 1.0));
  const auto result = replay(views(tl), net);
  EXPECT_EQ(result.ranks[0].finish_time, 2.5);  // three 0.5 s deposits
  EXPECT_EQ(result.ranks[0].comm_seconds, 1.5);
  // The first receive waits 3.25 -> 5.0 for the largest message; the other
  // two find theirs landed (last-in first-out would finish at 5.5).
  EXPECT_EQ(result.ranks[1].finish_time, 7.0);
  EXPECT_EQ(result.ranks[1].comm_seconds, 1.75);
  EXPECT_EQ(result.ranks[1].compute_seconds, 5.25);
  EXPECT_EQ(result.runtime, 7.0);
}

TEST(EagerTest, BothSendFirstIsDeadlockFreeUnderEager) {
  // The classic unsafe exchange: deadlocks under rendezvous (tested above),
  // completes under eager — exactly real MPI's behaviour for small messages.
  NetworkModel net = flat_network();
  net.eager_threshold_bytes = 1024;
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 1, 8, 0.0));
  tl[0].events.push_back(event(CommOp::Recv, 1, 8, 0.0));
  tl[1].events.push_back(event(CommOp::Send, 0, 8, 0.0));
  tl[1].events.push_back(event(CommOp::Recv, 0, 8, 0.0));
  EXPECT_NO_THROW(replay(views(tl), net));
}

TEST(EagerTest, ThresholdBoundary) {
  NetworkModel net = flat_network();
  net.eager_threshold_bytes = 200;
  EXPECT_TRUE(net.is_eager(200));
  EXPECT_FALSE(net.is_eager(201));

  // 201-byte messages rendezvous: both-send-first deadlocks again.
  std::vector<trace::CommTrace> tl(2);
  tl[0].events.push_back(event(CommOp::Send, 1, 201, 0.0));
  tl[0].events.push_back(event(CommOp::Recv, 1, 201, 0.0));
  tl[1].events.push_back(event(CommOp::Send, 0, 201, 0.0));
  tl[1].events.push_back(event(CommOp::Recv, 0, 201, 0.0));
  EXPECT_THROW(replay(views(tl), net), util::Error);
}

TEST(EagerTest, DisabledByDefault) {
  EXPECT_FALSE(NetworkModel{}.is_eager(1));
}

// --------------------------------------------------------- differential ----
//
// The event-driven engine against the round-robin oracle it replaced
// (tests/reference_replay.hpp), on seeded random timeline sets.  A set is a
// random global sequence of messages and collectives projected onto the
// ranks, which completes under any protocol; a quarter of the sets are then
// perturbed (a step dropped, two steps swapped, or an unsafe rendezvous
// exchange added), which often deadlocks.

struct RandomSet {
  std::vector<trace::CommTrace> ranks;
  NetworkModel network;
};

RandomSet random_set(std::uint64_t seed) {
  util::Rng rng(seed);
  RandomSet set;
  const auto n = static_cast<std::uint32_t>(2 + rng.below(15));
  NetworkModel& net = set.network;
  net.latency_s = rng.uniform(1e-7, 1e-5);
  net.bandwidth_bytes_per_s = rng.uniform(1e8, 1e10);
  net.per_stage_overhead_s = rng.uniform(0.0, 2e-6);
  const std::uint64_t thresholds[] = {0, 64, 1024, 16384};
  net.eager_threshold_bytes = thresholds[rng.below(4)];
  net.allreduce_ring_threshold_bytes = 1 + rng.below(1 << 16);
  net.torus.enabled = rng.below(2) == 1;
  net.torus.dims = {static_cast<std::uint32_t>(1 + rng.below(4)),
                    static_cast<std::uint32_t>(1 + rng.below(4)),
                    static_cast<std::uint32_t>(1 + rng.below(2))};
  net.torus.per_hop_latency_s = rng.uniform(0.0, 1e-6);

  auto bytes = [&] {
    switch (rng.below(4)) {
      case 0: return rng.below(65);            // tiny: eager whenever eager is on
      case 1: return 64 + rng.below(4096);     // around the thresholds
      case 2: return 4096 + rng.below(65536);  // mixed
      default: return 100'000 + rng.below(1'000'000);  // rendezvous
    }
  };
  auto compute = [&] { return rng.below(4) == 0 ? 0.0 : rng.uniform(0.0, 1e-3); };
  auto push = [&](std::uint32_t rank, CommOp op, std::int32_t peer, std::uint64_t b) {
    set.ranks[rank].events.push_back(event(op, peer, b, compute()));
  };

  set.ranks.resize(n);
  const std::uint64_t ops = 10 + rng.below(70);
  const CommOp collectives[] = {CommOp::Barrier,   CommOp::Bcast,     CommOp::Reduce,
                                CommOp::Allreduce, CommOp::Allgather, CommOp::Alltoall};
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::uint64_t kind = rng.below(10);
    if (kind < 2) {
      const CommOp op = collectives[rng.below(6)];
      for (std::uint32_t r = 0; r < n; ++r) push(r, op, -1, rng.below(2) ? bytes() : 0);
      continue;
    }
    const auto from = static_cast<std::uint32_t>(rng.below(n));
    const auto to = static_cast<std::uint32_t>((from + 1 + rng.below(n - 1)) % n);
    // A run of messages on one channel: under eager several are in flight
    // before the receiver posts.
    const std::uint64_t run = kind < 4 ? 2 + rng.below(4) : 1;
    for (std::uint64_t m = 0; m < run; ++m) {
      const std::uint64_t b = bytes();
      push(from, CommOp::Send, static_cast<std::int32_t>(to), b);
      push(to, CommOp::Recv, static_cast<std::int32_t>(from), b);
    }
  }
  for (trace::CommTrace& rank : set.ranks) rank.tail_compute_units = compute();

  if (seed % 4 == 3) {
    std::vector<CommEvent>& events = set.ranks[rng.below(n)].events;
    switch (rng.below(3)) {
      case 0:
        if (!events.empty())
          events.erase(events.begin() + static_cast<std::ptrdiff_t>(rng.below(events.size())));
        break;
      case 1:
        if (events.size() >= 2) {
          // Swap two events but not the bursts before them.
          const std::size_t at = rng.below(events.size() - 1);
          std::swap(events[at], events[at + 1]);
          std::swap(events[at].compute_units_before, events[at + 1].compute_units_before);
        }
        break;
      default: {
        // Both sides send first: deadlocks unless the message is eager.
        const auto a = static_cast<std::uint32_t>(rng.below(n));
        const auto b = (a + 1) % n;
        const std::uint64_t size = bytes();
        push(a, CommOp::Send, static_cast<std::int32_t>(b), size);
        push(b, CommOp::Send, static_cast<std::int32_t>(a), size);
        push(a, CommOp::Recv, static_cast<std::int32_t>(b), size);
        push(b, CommOp::Recv, static_cast<std::int32_t>(a), size);
      }
    }
  }
  return set;
}

/// The replay's result, or the part of its error message that does not
/// depend on the engine: the deadlock report, or the mismatched occurrence.
template <typename Engine>
std::pair<std::optional<simmpi::ReplayResult>, std::string> outcome(Engine engine,
                                                                    const RandomSet& set) {
  try {
    return {engine(views(set.ranks), set.network), ""};
  } catch (const util::Error& e) {
    const std::string what = e.what();
    for (const char* key : {"communication deadlock", "collective sequence mismatch"}) {
      const std::size_t at = what.find(key);
      if (at != std::string::npos) return {std::nullopt, what.substr(at, what.find(':', at) - at)};
    }
    return {std::nullopt, what};
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TEST(ReplayDifferentialTest, MatchesRoundRobinOracleBitForBit) {
  int completed = 0, deadlocked = 0, mismatched = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomSet set = random_set(seed);
    const auto expected = outcome(test::reference_replay, set);
    const auto actual = outcome(simmpi::replay, set);
    ASSERT_EQ(actual.first.has_value(), expected.first.has_value())
        << expected.second << actual.second;
    if (!expected.first) {
      EXPECT_EQ(actual.second, expected.second);
      if (expected.second.rfind("communication deadlock", 0) == 0) ++deadlocked;
      else ++mismatched;
      continue;
    }
    ++completed;
    const simmpi::ReplayResult& a = *actual.first;
    const simmpi::ReplayResult& b = *expected.first;
    ASSERT_EQ(a.ranks.size(), b.ranks.size());
    EXPECT_TRUE(same_bits(a.runtime, b.runtime));
    for (std::size_t r = 0; r < a.ranks.size(); ++r) {
      SCOPED_TRACE("rank " + std::to_string(r));
      EXPECT_TRUE(same_bits(a.ranks[r].finish_time, b.ranks[r].finish_time));
      EXPECT_TRUE(same_bits(a.ranks[r].compute_seconds, b.ranks[r].compute_seconds));
      EXPECT_TRUE(same_bits(a.ranks[r].comm_seconds, b.ranks[r].comm_seconds));
    }
  }
  // The generator must keep exercising both outcomes.
  EXPECT_GE(completed, 300);
  EXPECT_GE(deadlocked, 20);
  std::printf("differential: %d completed, %d deadlocked, %d collective mismatches\n",
              completed, deadlocked, mismatched);
}

// ---------------------------------------------------------- comm traces ----

TEST(ReplayTest, CommTraceTimelinesWaitAtTheBarrier) {
  std::vector<trace::CommTrace> traces(4);
  for (std::uint32_t r = 0; r < 4; ++r) {
    traces[r].rank = r;
    traces[r].core_count = 4;
    traces[r].events.push_back({CommOp::Barrier, -1, 0, r == 2 ? 500.0 : 100.0});
  }
  const std::vector<double> scales(4, 0.001);
  const auto result = replay(simmpi::timelines_from_comm(traces, scales), flat_network());
  EXPECT_GT(result.runtime, 0.5);
  // Ranks that computed less waited longer at the barrier.
  EXPECT_GT(result.ranks[0].comm_seconds, result.ranks[2].comm_seconds);
}

}  // namespace
}  // namespace pmacx
