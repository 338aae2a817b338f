#include "simmpi/replay.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace pmacx::simmpi {
namespace {

using trace::CommOp;

/// A rank waiting at a point-to-point event (or, for eager sends, the
/// record a sender left behind after continuing).
struct PendingP2p {
  std::uint32_t rank;
  double arrival;
  std::uint64_t bytes;
  bool eager_sender = false;  ///< sender already resumed; don't touch it
};

/// One SPMD collective occurrence being gathered across ranks.
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
  double arrival = 0.0;  ///< arrival time at the event we are blocked on
  std::size_t collective_index = 0;
  std::optional<double> resume;
  RankOutcome outcome;
};

}  // namespace

ReplayResult replay(std::span<const RankTimeline> timelines, const NetworkModel& network) {
  const std::uint32_t n = static_cast<std::uint32_t>(timelines.size());
  PMACX_CHECK(n > 0, "replay requires at least one rank");
  util::metrics::StageTimer timer("simmpi.replay");

  // Tally the replayed workload up front from the timelines themselves —
  // deterministic and independent of how the engine below makes progress.
  {
    std::uint64_t events = 0, collectives = 0, bytes = 0;
    for (const RankTimeline& tl : timelines) {
      events += tl.steps.size();
      for (const RankTimeline::Step& step : tl.steps) {
        bytes += step.event.bytes;
        if (trace::comm_op_is_collective(step.event.op)) ++collectives;
      }
    }
    util::metrics::Registry& metrics = util::metrics::Registry::global();
    metrics.counter("simmpi.replays").add();
    metrics.counter("simmpi.ranks_replayed").add(n);
    metrics.counter("simmpi.events_replayed").add(events);
    metrics.counter("simmpi.collectives_replayed").add(collectives);
    metrics.counter("simmpi.bytes_replayed").add(bytes);
  }

  std::vector<RankState> st(n);
  // Pending point-to-point arrivals keyed by (sender, receiver).
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

  // Resolves a matched send/recv pair.  Rendezvous: both ranks resume when
  // the synchronized transfer completes.  Eager: the sender resumed long
  // ago; the receiver resumes when the in-flight message lands.
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

  // Advances one rank as far as it can go; returns true if any progress.
  auto advance = [&](std::uint32_t r) -> bool {
    RankState& s = st[r];
    const RankTimeline& tl = timelines[r];
    bool progressed = false;

    for (;;) {
      if (s.phase == Phase::Done) return progressed;

      if (s.phase == Phase::Blocked) {
        // A collective may have been resolved by another rank's arrival.
        if (!s.resume) {
          const trace::CommEvent& ev = tl.steps[s.step].event;
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

      // Phase::Running — execute the compute burst, then arrive at the event.
      if (s.step >= tl.steps.size()) {
        s.time += tl.tail_compute_seconds;
        s.outcome.compute_seconds += tl.tail_compute_seconds;
        s.outcome.finish_time = s.time;
        s.phase = Phase::Done;
        progressed = true;
        continue;
      }

      const RankTimeline::Step& step = tl.steps[s.step];
      PMACX_CHECK(step.compute_seconds_before >= 0, "negative compute burst");
      s.time += step.compute_seconds_before;
      s.outcome.compute_seconds += step.compute_seconds_before;
      s.arrival = s.time;
      s.phase = Phase::Blocked;
      progressed = true;

      const trace::CommEvent& ev = step.event;
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
        // Eager senders continue after the local buffer deposit, whether or
        // not the receive is posted yet.
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
        // Collective, matched SPMD-style by occurrence index.
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
          s.resume = occ.completion;  // others pick it up via occ.resolved
        }
      }
    }
  };

  // Round-robin until quiescent.
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

  ReplayResult result;
  result.ranks.reserve(n);
  for (std::uint32_t r = 0; r < n; ++r) {
    result.ranks.push_back(st[r].outcome);
    result.runtime = std::max(result.runtime, st[r].outcome.finish_time);
  }
  return result;
}

std::vector<RankTimeline> timelines_from_comm(std::span<const trace::CommTrace> traces,
                                              std::span<const double> seconds_per_unit) {
  PMACX_CHECK(traces.size() == seconds_per_unit.size(),
              "timelines_from_comm: traces/scales size mismatch");
  std::vector<RankTimeline> timelines(traces.size());
  for (std::size_t r = 0; r < traces.size(); ++r) {
    const double scale = seconds_per_unit[r];
    PMACX_CHECK(scale >= 0, "negative seconds-per-unit scale");
    RankTimeline& tl = timelines[r];
    tl.steps.reserve(traces[r].events.size());
    for (const trace::CommEvent& event : traces[r].events)
      tl.steps.push_back({event, event.compute_units_before * scale});
    tl.tail_compute_seconds = traces[r].tail_compute_units * scale;
  }
  return timelines;
}

}  // namespace pmacx::simmpi
