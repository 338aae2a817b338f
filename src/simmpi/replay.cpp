#include "simmpi/replay.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/metrics.hpp"

namespace pmacx::simmpi {
namespace {

using trace::CommOp;

constexpr std::uint32_t kNoChannel = std::numeric_limits<std::uint32_t>::max();

/// A send deposited on its channel before the matching receive was posted.
/// A rendezvous sender is still blocked on it; an eager one has moved on.
struct QueuedSend {
  double arrival;
  std::uint64_t bytes;
};

/// One (sender, receiver) channel.  Its FIFO of queued sends is the range
/// [head, tail) of the flat queue, inside a segment sized to the channel's
/// send count, so it never wraps.
struct Channel {
  std::uint32_t sender;
  std::uint32_t receiver;
  std::size_t head = 0;
  std::size_t tail = 0;
};

/// Flat point-to-point matching tables for one replay.
struct Channels {
  std::vector<Channel> channels;           ///< by sender, receivers ascending
  std::vector<std::size_t> first_step;     ///< rank r's steps start here
  std::vector<std::uint32_t> step_channel; ///< channel of every p2p step
  std::vector<QueuedSend> queue;
};

/// Builds the channel of every point-to-point step, checking every peer,
/// and tallies the replayed workload into the metrics registry.
Channels build_channels(std::span<const RankTimeline> timelines) {
  const auto n = static_cast<std::uint32_t>(timelines.size());
  auto validate_peer = [&](std::uint32_t rank, std::int32_t peer) {
    PMACX_CHECK(peer >= 0 && static_cast<std::uint32_t>(peer) < n,
                "rank " + std::to_string(rank) + ": peer " + std::to_string(peer) +
                    " out of range");
    PMACX_CHECK(static_cast<std::uint32_t>(peer) != rank,
                "rank " + std::to_string(rank) + ": send/recv to self");
  };

  Channels out;
  out.first_step.resize(n + 1, 0);
  for (std::uint32_t r = 0; r < n; ++r)
    out.first_step[r + 1] = out.first_step[r] + timelines[r].events.size();
  out.step_channel.assign(out.first_step[n], kNoChannel);

  // Senders in rank order, each one's receivers ascending, so a receiver
  // finds its channel by binary search over the sender's range.
  std::vector<std::size_t> first_channel(n + 1, 0);
  std::vector<std::uint32_t> receivers;
  std::uint64_t collectives = 0, bytes = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    first_channel[s] = out.channels.size();
    const std::span<const trace::CommEvent> events = timelines[s].events;
    receivers.clear();
    for (const trace::CommEvent& event : events) {
      bytes += event.bytes;
      if (trace::comm_op_is_collective(event.op)) ++collectives;
      if (event.op != CommOp::Send) continue;
      validate_peer(s, event.peer);
      receivers.push_back(static_cast<std::uint32_t>(event.peer));
    }
    std::sort(receivers.begin(), receivers.end());
    receivers.erase(std::unique(receivers.begin(), receivers.end()), receivers.end());
    for (const std::uint32_t receiver : receivers) out.channels.push_back({s, receiver});
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].op != CommOp::Send) continue;
      const auto at = std::lower_bound(receivers.begin(), receivers.end(),
                                       static_cast<std::uint32_t>(events[i].peer));
      const std::size_t c = first_channel[s] + static_cast<std::size_t>(at - receivers.begin());
      out.step_channel[out.first_step[s] + i] = static_cast<std::uint32_t>(c);
      ++out.channels[c].tail;  // counts the channel's sends for now
    }
  }
  first_channel[n] = out.channels.size();
  PMACX_CHECK(out.channels.size() < kNoChannel, "too many point-to-point channels");

  std::size_t offset = 0;
  for (Channel& channel : out.channels) {
    const std::size_t sends = channel.tail;
    channel.head = channel.tail = offset;
    offset += sends;
  }
  out.queue.resize(offset);

  // A receive from a peer that never sends to this rank keeps kNoChannel
  // and blocks forever.
  for (std::uint32_t r = 0; r < n; ++r) {
    const std::span<const trace::CommEvent> events = timelines[r].events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      if (events[i].op != CommOp::Recv) continue;
      validate_peer(r, events[i].peer);
      const auto sender = static_cast<std::uint32_t>(events[i].peer);
      const auto begin = out.channels.begin() + static_cast<std::ptrdiff_t>(first_channel[sender]);
      const auto end =
          out.channels.begin() + static_cast<std::ptrdiff_t>(first_channel[sender + 1]);
      const auto at = std::lower_bound(begin, end, r, [](const Channel& c, std::uint32_t receiver) {
        return c.receiver < receiver;
      });
      if (at != end && at->receiver == r)
        out.step_channel[out.first_step[r] + i] =
            static_cast<std::uint32_t>(at - out.channels.begin());
    }
  }

  util::metrics::Registry& metrics = util::metrics::Registry::global();
  metrics.counter("simmpi.replays").add();
  metrics.counter("simmpi.ranks_replayed").add(n);
  metrics.counter("simmpi.events_replayed").add(out.first_step[n]);
  metrics.counter("simmpi.collectives_replayed").add(collectives);
  metrics.counter("simmpi.bytes_replayed").add(bytes);
  return out;
}

struct RankState {
  std::size_t step = 0;
  std::uint32_t posted_recv = kNoChannel;  ///< channel of an unmatched receive
  bool done = false;
  double time = 0.0;
  double arrival = 0.0;  ///< arrival time at the current event
  double resume = 0.0;   ///< completion time of the current event, once known
  RankOutcome outcome;
};

/// Accounts the wait for the current event, which completed at s.resume,
/// and moves the rank to its next step.
void complete_event(RankState& s) {
  PMACX_ASSERT(s.resume >= s.arrival - 1e-12, "resume before arrival");
  s.outcome.comm_seconds += s.resume - s.arrival;
  s.time = s.resume;
  ++s.step;
}

/// The SPMD collective occurrence being gathered.  A rank reaches
/// occurrence k+1 only after k completed on every rank, so one suffices.
struct Gathering {
  std::size_t index = 0;
  CommOp op = CommOp::Barrier;
  std::uint64_t max_bytes = 0;
  std::uint32_t arrivals = 0;
  double max_arrival = 0.0;
};

}  // namespace

ReplayResult replay(std::span<const RankTimeline> timelines, const NetworkModel& network) {
  const std::uint32_t n = static_cast<std::uint32_t>(timelines.size());
  PMACX_CHECK(n > 0, "replay requires at least one rank");
  util::metrics::StageTimer timer("simmpi.replay");

  Channels channels = build_channels(timelines);
  std::vector<RankState> st(n);
  Gathering gathering;
  // Blocked ranks whose event has completed, each with its resume time.
  std::vector<std::uint32_t> woken;
  woken.reserve(n);
  auto wake = [&](std::uint32_t rank, double at) {
    st[rank].resume = at;
    woken.push_back(rank);
  };

  // Runs rank r from its current step until it blocks or finishes.  Every
  // completion is the same max/+ over the same operands whichever side
  // arrives last, and each rank accumulates its times in step order, so
  // the order in which ranks run cannot change the result.
  auto run = [&](std::uint32_t r) {
    RankState& s = st[r];
    const RankTimeline& tl = timelines[r];
    const std::uint32_t* channel_of = channels.step_channel.data() + channels.first_step[r];
    for (;;) {
      if (s.step == tl.events.size()) {
        const double tail = tl.tail_compute_seconds();
        PMACX_CHECK(tail >= 0, "negative tail compute burst");
        s.time += tail;
        s.outcome.compute_seconds += tail;
        s.outcome.finish_time = s.time;
        s.done = true;
        return;
      }

      const double burst = tl.compute_seconds_before(s.step);
      PMACX_CHECK(burst >= 0, "negative compute burst");
      s.time += burst;
      s.outcome.compute_seconds += burst;
      s.arrival = s.time;

      const trace::CommEvent& ev = tl.events[s.step];
      if (ev.op == CommOp::Send) {
        const std::uint32_t c = channel_of[s.step];
        Channel& channel = channels.channels[c];
        RankState& receiver = st[channel.receiver];
        const bool eager = network.is_eager(ev.bytes);
        if (receiver.posted_recv == c) {
          receiver.posted_recv = kNoChannel;
          const double transfer = network.p2p_time_between(r, channel.receiver, ev.bytes);
          if (eager) {
            // The receiver resumes when the in-flight message lands.
            wake(channel.receiver, std::max(receiver.arrival, s.arrival + transfer));
          } else {
            const double completion = std::max(s.arrival, receiver.arrival) + transfer;
            wake(channel.receiver, completion);
            s.resume = completion;
          }
        } else {
          channels.queue[channel.tail++] = {s.arrival, ev.bytes};
          if (!eager) return;  // rendezvous: blocked until the receive posts
        }
        // Eager senders continue after the local buffer deposit, whether or
        // not the receive is posted yet.
        if (eager) s.resume = s.arrival + network.per_stage_overhead_s;
      } else if (ev.op == CommOp::Recv) {
        const std::uint32_t c = channel_of[s.step];
        if (c == kNoChannel) return;  // the peer never sends here: blocked for good
        Channel& channel = channels.channels[c];
        if (channel.head == channel.tail) {
          s.posted_recv = c;
          return;
        }
        const QueuedSend send = channels.queue[channel.head++];
        const double transfer = network.p2p_time_between(channel.sender, r, send.bytes);
        if (network.is_eager(send.bytes)) {
          s.resume = std::max(s.arrival, send.arrival + transfer);
        } else {
          const double completion = std::max(send.arrival, s.arrival) + transfer;
          wake(channel.sender, completion);
          s.resume = completion;
        }
      } else {
        // Collective, matched SPMD-style by occurrence index.
        Gathering& g = gathering;
        if (g.arrivals == 0) g.op = ev.op;
        PMACX_CHECK(g.op == ev.op,
                    "collective sequence mismatch at occurrence " + std::to_string(g.index) +
                        ": rank " + std::to_string(r) + " executes " +
                        trace::comm_op_name(ev.op) + " but others executed " +
                        trace::comm_op_name(g.op));
        g.max_bytes = std::max(g.max_bytes, ev.bytes);
        g.max_arrival = std::max(g.max_arrival, s.arrival);
        if (++g.arrivals < n) return;  // blocked until the last rank arrives
        const double completion =
            g.max_arrival + network.collective_time(g.op, g.max_bytes, n);
        g = Gathering{g.index + 1};
        for (std::uint32_t q = 0; q < n; ++q)
          if (q != r) wake(q, completion);
        s.resume = completion;
      }

      complete_event(s);
    }
  };

  for (std::uint32_t r = 0; r < n; ++r) {
    run(r);
    while (!woken.empty()) {
      const std::uint32_t w = woken.back();
      woken.pop_back();
      complete_event(st[w]);
      run(w);
    }
  }

  std::vector<std::uint32_t> stuck;
  for (std::uint32_t r = 0; r < n; ++r)
    if (!st[r].done) stuck.push_back(r);
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
    PMACX_CHECK(seconds_per_unit[r] >= 0, "negative seconds-per-unit scale");
    timelines[r] = {traces[r].events, seconds_per_unit[r], traces[r].tail_compute_units};
  }
  return timelines;
}

}  // namespace pmacx::simmpi
