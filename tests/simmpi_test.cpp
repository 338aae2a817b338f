// Tests for the network model and the replay engine: rendezvous timing
// math, collective synchronization, deadlock detection and comm-trace
// timelines.
#include <gtest/gtest.h>

#include <cmath>

#include "simmpi/network.hpp"
#include "simmpi/replay.hpp"
#include "util/error.hpp"

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

RankTimeline::Step step(CommOp op, std::int32_t peer, std::uint64_t bytes, double compute) {
  return {CommEvent{op, peer, bytes, 0.0}, compute};
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
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Send, 1, 200, 5.0));
  tl[1].steps.push_back(step(CommOp::Recv, 0, 200, 2.0));
  const auto result = replay(tl, flat_network());
  EXPECT_DOUBLE_EQ(result.ranks[0].finish_time, 8.0);
  EXPECT_DOUBLE_EQ(result.ranks[1].finish_time, 8.0);
  EXPECT_DOUBLE_EQ(result.ranks[0].comm_seconds, 3.0);  // blocked 5→8
  EXPECT_DOUBLE_EQ(result.ranks[1].comm_seconds, 6.0);  // blocked 2→8
  EXPECT_DOUBLE_EQ(result.runtime, 8.0);
}

TEST(ReplayTest, TailComputeCounted) {
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Send, 1, 0, 1.0));
  tl[0].tail_compute_seconds = 10.0;
  tl[1].steps.push_back(step(CommOp::Recv, 0, 0, 1.0));
  const auto result = replay(tl, flat_network());
  EXPECT_DOUBLE_EQ(result.ranks[0].finish_time, 1.0 + 1.0 + 10.0);
  EXPECT_DOUBLE_EQ(result.ranks[0].compute_seconds, 11.0);
}

TEST(ReplayTest, MultipleMessagesMatchInOrder) {
  // Two sends from 0 to 1 match the two recvs in order.
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Send, 1, 100, 1.0));
  tl[0].steps.push_back(step(CommOp::Send, 1, 100, 0.0));
  tl[1].steps.push_back(step(CommOp::Recv, 0, 100, 0.0));
  tl[1].steps.push_back(step(CommOp::Recv, 0, 100, 0.0));
  const auto result = replay(tl, flat_network());
  // First match: max(1,0)+2=3; second: max(3,3)+2=5.
  EXPECT_DOUBLE_EQ(result.runtime, 5.0);
}

TEST(ReplayTest, BarrierSynchronizesAllRanks) {
  std::vector<RankTimeline> tl(4);
  for (std::size_t r = 0; r < 4; ++r)
    tl[r].steps.push_back(step(CommOp::Barrier, -1, 0, static_cast<double>(r)));
  const auto result = replay(tl, flat_network());
  // All wait for rank 3 (arrives at 3), plus 2 stages × latency 1.
  for (const auto& rank : result.ranks) EXPECT_DOUBLE_EQ(rank.finish_time, 5.0);
}

TEST(ReplayTest, CollectiveMismatchDetected) {
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Barrier, -1, 0, 0.0));
  tl[1].steps.push_back(step(CommOp::Allreduce, -1, 8, 0.0));
  EXPECT_THROW(replay(tl, flat_network()), util::Error);
}

TEST(ReplayTest, DeadlockDetected) {
  // Both ranks send first: rendezvous semantics deadlock.
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Send, 1, 8, 0.0));
  tl[0].steps.push_back(step(CommOp::Recv, 1, 8, 0.0));
  tl[1].steps.push_back(step(CommOp::Send, 0, 8, 0.0));
  tl[1].steps.push_back(step(CommOp::Recv, 0, 8, 0.0));
  try {
    replay(tl, flat_network());
    FAIL() << "expected deadlock";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(ReplayTest, SelfSendRejected) {
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Send, 0, 8, 0.0));
  EXPECT_THROW(replay(tl, flat_network()), util::Error);
}

TEST(ReplayTest, PeerOutOfRangeRejected) {
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Send, 7, 8, 0.0));
  EXPECT_THROW(replay(tl, flat_network()), util::Error);
}

TEST(ReplayTest, PureComputeRun) {
  std::vector<RankTimeline> tl(3);
  for (std::size_t r = 0; r < 3; ++r) tl[r].tail_compute_seconds = 2.0 + r;
  const auto result = replay(tl, flat_network());
  EXPECT_DOUBLE_EQ(result.runtime, 4.0);
}

TEST(ReplayTest, DeterministicAcrossCalls) {
  std::vector<RankTimeline> tl(4);
  for (std::size_t r = 0; r < 4; ++r) {
    tl[r].steps.push_back(step(CommOp::Allreduce, -1, 64, 1.0 + 0.1 * r));
    tl[r].steps.push_back(step(CommOp::Barrier, -1, 0, 0.5));
  }
  const auto a = replay(tl, flat_network());
  const auto b = replay(tl, flat_network());
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
  EXPECT_DOUBLE_EQ(timelines[0].steps[0].compute_seconds_before, 1.0);
  EXPECT_DOUBLE_EQ(timelines[1].steps[0].compute_seconds_before, 2.0);
  EXPECT_DOUBLE_EQ(timelines[1].tail_compute_seconds, 1.0);
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
  std::vector<RankTimeline> tl(16);
  tl[0].steps.push_back(step(CommOp::Send, 8, 100, 0.0));
  tl[8].steps.push_back(step(CommOp::Recv, 0, 100, 0.0));
  const auto result = replay(tl, net);
  EXPECT_DOUBLE_EQ(result.ranks[8].finish_time, net.p2p_time(100) + 8.0);
}

// ---------------------------------------------------------------- eager ----

TEST(EagerTest, SenderContinuesWithoutReceiver) {
  NetworkModel net = flat_network();
  net.eager_threshold_bytes = 1024;
  net.per_stage_overhead_s = 0.5;
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Send, 1, 200, 1.0));  // eager (<=1024)
  tl[0].tail_compute_seconds = 10.0;
  tl[1].steps.push_back(step(CommOp::Recv, 0, 200, 50.0));  // posts very late
  const auto result = replay(tl, net);
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
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Send, 1, 200, 5.0));
  tl[1].steps.push_back(step(CommOp::Recv, 0, 200, 1.0));  // posts early
  const auto result = replay(tl, net);
  // Message lands at 5 + 3 = 8; the early receiver blocks 1 → 8.
  EXPECT_DOUBLE_EQ(result.ranks[1].finish_time, 8.0);
  EXPECT_DOUBLE_EQ(result.ranks[1].comm_seconds, 7.0);
  EXPECT_DOUBLE_EQ(result.ranks[0].finish_time, 5.0);
}

TEST(EagerTest, BothSendFirstIsDeadlockFreeUnderEager) {
  // The classic unsafe exchange: deadlocks under rendezvous (tested above),
  // completes under eager — exactly real MPI's behaviour for small messages.
  NetworkModel net = flat_network();
  net.eager_threshold_bytes = 1024;
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Send, 1, 8, 0.0));
  tl[0].steps.push_back(step(CommOp::Recv, 1, 8, 0.0));
  tl[1].steps.push_back(step(CommOp::Send, 0, 8, 0.0));
  tl[1].steps.push_back(step(CommOp::Recv, 0, 8, 0.0));
  EXPECT_NO_THROW(replay(tl, net));
}

TEST(EagerTest, ThresholdBoundary) {
  NetworkModel net = flat_network();
  net.eager_threshold_bytes = 200;
  EXPECT_TRUE(net.is_eager(200));
  EXPECT_FALSE(net.is_eager(201));

  // 201-byte messages rendezvous: both-send-first deadlocks again.
  std::vector<RankTimeline> tl(2);
  tl[0].steps.push_back(step(CommOp::Send, 1, 201, 0.0));
  tl[0].steps.push_back(step(CommOp::Recv, 1, 201, 0.0));
  tl[1].steps.push_back(step(CommOp::Send, 0, 201, 0.0));
  tl[1].steps.push_back(step(CommOp::Recv, 0, 201, 0.0));
  EXPECT_THROW(replay(tl, net), util::Error);
}

TEST(EagerTest, DisabledByDefault) {
  EXPECT_FALSE(NetworkModel{}.is_eager(1));
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
