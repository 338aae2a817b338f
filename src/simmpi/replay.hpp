// Deterministic replay of per-rank MPI timelines.
//
// This is the execution-replay half of PSiNS: every rank's timeline is an
// alternating sequence of computation bursts (abstract work units, which
// the rank's seconds-per-unit scale from the caller's computation model
// turns into seconds) and MPI events.  The engine advances
// each rank until it blocks — a point-to-point event blocks until its
// partner has arrived, a collective blocks until every rank has arrived at
// the same occurrence — and resolves matches with the network model's
// transfer times.  A blocked rank runs again when the match or the
// collective's last arrival wakes it; results do not depend on the order
// in which ranks run.  Semantics:
//
//   * Send/Recv are rendezvous: the k-th send from a to b matches the k-th
//     recv on b from a; both sides complete at
//     max(sender arrival, receiver arrival) + p2p transfer time.
//   * Collectives are SPMD-matched by occurrence index: the k-th collective
//     executed by each rank is the same operation on every rank (validated);
//     all ranks complete at max(arrivals) + collective time.
//
// The engine detects deadlock (no rank can make progress) and reports the
// stuck ranks, which turns malformed synthetic comm traces into loud errors
// instead of hangs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "simmpi/network.hpp"
#include "trace/comm.hpp"

namespace pmacx::simmpi {

/// One rank's timeline: a view of the rank's comm events plus the rank's
/// seconds-per-unit scale.  The view borrows the events (keep their trace
/// alive until replay returns) and copies the scale.  Replay converts each
/// burst to seconds as it reads it, as units × seconds_per_unit.
struct RankTimeline {
  std::span<const trace::CommEvent> events;
  double seconds_per_unit = 1.0;    ///< the rank's own scale, held by value
  double tail_compute_units = 0.0;  ///< CPU burst after the last event

  /// CPU burst, in seconds, preceding event i.
  double compute_seconds_before(std::size_t i) const {
    return events[i].compute_units_before * seconds_per_unit;
  }
  /// CPU burst, in seconds, after the last event.
  double tail_compute_seconds() const { return tail_compute_units * seconds_per_unit; }
};

/// Replay outcome for one rank.
struct RankOutcome {
  double finish_time = 0.0;
  double compute_seconds = 0.0;  ///< time spent in CPU bursts
  double comm_seconds = 0.0;     ///< time spent blocked in / transferring MPI
};

/// Whole-run replay outcome.
struct ReplayResult {
  std::vector<RankOutcome> ranks;
  double runtime = 0.0;  ///< max finish time across ranks
};

/// Replays the timelines (index = rank).  Throws util::Error on deadlock,
/// mismatched collective sequences, a negative or NaN compute burst (the
/// tail included), or a point-to-point peer that is out of range or the
/// rank itself; peers are checked for every step before replay starts.
ReplayResult replay(std::span<const RankTimeline> timelines, const NetworkModel& network);

/// Views of the comm traces for replay: rank r reads traces[r]'s events,
/// scaled by `seconds_per_unit[r]`.  The views borrow `traces`, which must
/// outlive them; the scales are copied, so `seconds_per_unit` may go first.
std::vector<RankTimeline> timelines_from_comm(std::span<const trace::CommTrace> traces,
                                              std::span<const double> seconds_per_unit);

}  // namespace pmacx::simmpi
