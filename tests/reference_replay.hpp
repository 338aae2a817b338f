// Round-robin replay engine, kept as the test oracle for simmpi::replay.
//
// This is the engine simmpi::replay replaced, minus its metrics tally: it
// sweeps every rank in rank order until nothing moves, matches
// point-to-point events through (sender, receiver)-keyed maps of deques,
// and lets blocked ranks poll a collective occurrence until it resolves.
// Its semantics are the ones documented in simmpi/replay.hpp; simmpi_test
// asserts that the event-driven engine returns bit-identical results and
// names the same stuck ranks on deadlock.
//
// Deliberately not part of pmacx_simmpi: production code must never grow a
// dependency on the slow engine.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "simmpi/replay.hpp"
#include "util/error.hpp"

namespace pmacx::test {

inline simmpi::ReplayResult reference_replay(std::span<const simmpi::RankTimeline> timelines,
                                             const simmpi::NetworkModel& network) {
  using simmpi::RankOutcome;
  using simmpi::RankTimeline;
  using trace::CommOp;

  struct PendingP2p {
    std::uint32_t rank;
    double arrival;
    std::uint64_t bytes;
    bool eager_sender = false;
  };
  struct CollectiveOccurrence {
    CommOp op = CommOp::Barrier;
    std::uint64_t max_bytes = 0;
    std::uint32_t arrivals = 0;
    double max_arrival = 0.0;
    bool resolved = false;
    double completion = 0.0;
  };
  enum class Phase { Running, Blocked, Done };
  struct RankState {
    Phase phase = Phase::Running;
    std::size_t step = 0;
    double time = 0.0;
    double arrival = 0.0;
    std::size_t collective_index = 0;
    std::optional<double> resume;
    RankOutcome outcome;
  };

  const std::uint32_t n = static_cast<std::uint32_t>(timelines.size());
  PMACX_CHECK(n > 0, "replay requires at least one rank");

  std::vector<RankState> st(n);
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::deque<PendingP2p>> pending_sends;
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::deque<PendingP2p>> pending_recvs;
  std::vector<CollectiveOccurrence> collectives;

  auto validate_peer = [&](std::uint32_t rank, std::int32_t peer) {
    PMACX_CHECK(peer >= 0 && static_cast<std::uint32_t>(peer) < n,
                "rank " + std::to_string(rank) + ": peer " + std::to_string(peer) +
                    " out of range");
    PMACX_CHECK(static_cast<std::uint32_t>(peer) != rank,
                "rank " + std::to_string(rank) + ": send/recv to self");
  };

  auto resolve_p2p = [&](const PendingP2p& send, const PendingP2p& recv) {
    const double transfer = network.p2p_time_between(send.rank, recv.rank, send.bytes);
    if (send.eager_sender) {
      st[recv.rank].resume = std::max(recv.arrival, send.arrival + transfer);
      return;
    }
    const double completion = std::max(send.arrival, recv.arrival) + transfer;
    st[send.rank].resume = completion;
    st[recv.rank].resume = completion;
  };

  auto advance = [&](std::uint32_t r) -> bool {
    RankState& s = st[r];
    const RankTimeline& tl = timelines[r];
    bool progressed = false;

    for (;;) {
      if (s.phase == Phase::Done) return progressed;

      if (s.phase == Phase::Blocked) {
        if (!s.resume) {
          const trace::CommEvent& ev = tl.events[s.step];
          if (trace::comm_op_is_collective(ev.op)) {
            const CollectiveOccurrence& occ = collectives[s.collective_index - 1];
            if (occ.resolved) s.resume = occ.completion;
          }
        }
        if (!s.resume) return progressed;
        const double resume_at = *s.resume;
        s.resume.reset();
        PMACX_ASSERT(resume_at >= s.arrival - 1e-12, "resume before arrival");
        s.outcome.comm_seconds += resume_at - s.arrival;
        s.time = resume_at;
        ++s.step;
        s.phase = Phase::Running;
        progressed = true;
        continue;
      }

      if (s.step >= tl.events.size()) {
        s.time += tl.tail_compute_seconds();
        s.outcome.compute_seconds += tl.tail_compute_seconds();
        s.outcome.finish_time = s.time;
        s.phase = Phase::Done;
        progressed = true;
        continue;
      }

      const double burst = tl.compute_seconds_before(s.step);
      PMACX_CHECK(burst >= 0, "negative compute burst");
      s.time += burst;
      s.outcome.compute_seconds += burst;
      s.arrival = s.time;
      s.phase = Phase::Blocked;
      progressed = true;

      const trace::CommEvent& ev = tl.events[s.step];
      if (ev.op == CommOp::Send) {
        validate_peer(r, ev.peer);
        const auto key = std::make_pair(r, static_cast<std::uint32_t>(ev.peer));
        const bool eager = network.is_eager(ev.bytes);
        const PendingP2p me{r, s.arrival, ev.bytes, eager};
        auto& recv_queue = pending_recvs[key];
        if (!recv_queue.empty()) {
          const PendingP2p recv = recv_queue.front();
          recv_queue.pop_front();
          resolve_p2p(me, recv);
        } else {
          pending_sends[key].push_back(me);
        }
        if (eager) s.resume = s.arrival + network.per_stage_overhead_s;
      } else if (ev.op == CommOp::Recv) {
        validate_peer(r, ev.peer);
        const auto key = std::make_pair(static_cast<std::uint32_t>(ev.peer), r);
        auto& send_queue = pending_sends[key];
        if (!send_queue.empty()) {
          const PendingP2p send = send_queue.front();
          send_queue.pop_front();
          resolve_p2p(send, PendingP2p{r, s.arrival, ev.bytes});
        } else {
          pending_recvs[key].push_back(PendingP2p{r, s.arrival, ev.bytes});
        }
      } else {
        const std::size_t k = s.collective_index++;
        if (k >= collectives.size()) collectives.resize(k + 1);
        CollectiveOccurrence& occ = collectives[k];
        if (occ.arrivals == 0) occ.op = ev.op;
        PMACX_CHECK(occ.op == ev.op,
                    "collective sequence mismatch at occurrence " + std::to_string(k) +
                        ": rank " + std::to_string(r) + " executes " +
                        trace::comm_op_name(ev.op) + " but others executed " +
                        trace::comm_op_name(occ.op));
        occ.max_bytes = std::max(occ.max_bytes, ev.bytes);
        occ.max_arrival = std::max(occ.max_arrival, s.arrival);
        ++occ.arrivals;
        if (occ.arrivals == n) {
          occ.resolved = true;
          occ.completion =
              occ.max_arrival + network.collective_time(occ.op, occ.max_bytes, n);
          s.resume = occ.completion;
        }
      }
    }
  };

  bool progress = true;
  while (progress) {
    progress = false;
    for (std::uint32_t r = 0; r < n; ++r)
      if (advance(r)) progress = true;
  }

  std::vector<std::uint32_t> stuck;
  for (std::uint32_t r = 0; r < n; ++r)
    if (st[r].phase != Phase::Done) stuck.push_back(r);
  if (!stuck.empty()) {
    std::string who;
    for (std::size_t i = 0; i < std::min<std::size_t>(stuck.size(), 8); ++i)
      who += (i ? "," : "") + std::to_string(stuck[i]);
    PMACX_CHECK(false, "communication deadlock: " + std::to_string(stuck.size()) +
                           " rank(s) stuck (first: " + who + ")");
  }

  simmpi::ReplayResult result;
  result.ranks.reserve(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    result.ranks.push_back(st[r].outcome);
    result.runtime = std::max(result.runtime, st[r].outcome.finish_time);
  }
  return result;
}

}  // namespace pmacx::test
