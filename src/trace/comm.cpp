#include "trace/comm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pmacx::trace {
namespace {

// Smallest text encoding of one event ("e\tsend\t0\t0\t0\n"), used to clamp
// reserve() against a corrupted declared count: the parse then fails at
// end-of-input instead of attempting an unbounded allocation.
constexpr std::size_t kMinTextEventBytes = 13;

/// A peer rank: -1 (collectives) or an integer in [0, INT32_MAX].
std::int32_t parse_peer(const std::string& text) {
  if (util::trim(text) == "-1") return -1;
  const std::uint64_t peer = util::parse_u64(text, "peer");
  PMACX_CHECK(peer <= static_cast<std::uint64_t>(std::numeric_limits<std::int32_t>::max()),
              "peer " + text + " out of range");
  return static_cast<std::int32_t>(peer);
}

/// Compute units: finite and non-negative.
double parse_units(const std::string& text, const char* context) {
  const double units = util::parse_double(text, context);
  PMACX_CHECK(std::isfinite(units) && units >= 0,
              std::string(context) + " '" + text + "' is negative or not finite");
  return units;
}

}  // namespace

std::string comm_op_name(CommOp op) {
  switch (op) {
    case CommOp::Send: return "send";
    case CommOp::Recv: return "recv";
    case CommOp::Barrier: return "barrier";
    case CommOp::Bcast: return "bcast";
    case CommOp::Reduce: return "reduce";
    case CommOp::Allreduce: return "allreduce";
    case CommOp::Allgather: return "allgather";
    case CommOp::Alltoall: return "alltoall";
  }
  PMACX_ASSERT(false, "bad CommOp");
  return "?";
}

CommOp comm_op_from_name(const std::string& name) {
  for (CommOp op : {CommOp::Send, CommOp::Recv, CommOp::Barrier, CommOp::Bcast, CommOp::Reduce,
                    CommOp::Allreduce, CommOp::Allgather, CommOp::Alltoall}) {
    if (comm_op_name(op) == name) return op;
  }
  PMACX_CHECK(false, "unknown comm op '" + name + "'");
  return CommOp::Barrier;
}

bool comm_op_is_collective(CommOp op) {
  return op != CommOp::Send && op != CommOp::Recv;
}

double CommTrace::total_compute_units() const {
  double total = tail_compute_units;
  for (const auto& event : events) total += event.compute_units_before;
  return total;
}

std::uint64_t CommTrace::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& event : events) total += event.bytes;
  return total;
}

std::string CommTrace::to_text() const {
  std::ostringstream out;
  out.precision(17);
  out << "pmacx-comm\t1\n";
  out << "rank\t" << rank << '\n';
  out << "cores\t" << core_count << '\n';
  out << "tail\t" << tail_compute_units << '\n';
  out << "events\t" << events.size() << '\n';
  for (const auto& event : events) {
    out << "e\t" << comm_op_name(event.op) << '\t' << event.peer << '\t' << event.bytes << '\t'
        << event.compute_units_before << '\n';
  }
  out << "end\n";
  return out.str();
}

CommTrace CommTrace::from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  auto next = [&](const char* what) {
    while (std::getline(in, line)) {
      if (!line.empty()) return util::split(line, '\t');
    }
    PMACX_CHECK(false, std::string("unexpected end of comm trace reading ") + what);
    return std::vector<std::string>{};
  };
  auto expect = [&](const char* key) {
    auto fields = next(key);
    PMACX_CHECK(!fields.empty() && fields[0] == key,
                std::string("expected '") + key + "' in comm trace");
    PMACX_CHECK(fields.size() >= 2, std::string("missing value for '") + key + "'");
    return fields;
  };

  auto header = next("header");
  PMACX_CHECK(header.size() >= 2 && header[0] == "pmacx-comm" && header[1] == "1",
              "not a pmacx comm trace");

  CommTrace trace;
  trace.rank = static_cast<std::uint32_t>(util::parse_u64(expect("rank")[1], "rank"));
  trace.core_count = static_cast<std::uint32_t>(util::parse_u64(expect("cores")[1], "cores"));
  trace.tail_compute_units = parse_units(expect("tail")[1], "tail");
  const std::uint64_t count = util::parse_u64(expect("events")[1], "events");
  trace.events.reserve(std::min<std::uint64_t>(count, text.size() / kMinTextEventBytes));
  for (std::uint64_t i = 0; i < count; ++i) {
    auto fields = next("event");
    PMACX_CHECK(fields.size() == 5 && fields[0] == "e", "malformed comm event");
    CommEvent event;
    event.op = comm_op_from_name(fields[1]);
    event.peer = parse_peer(fields[2]);
    event.bytes = util::parse_u64(fields[3], "bytes");
    event.compute_units_before = parse_units(fields[4], "compute units");
    trace.events.push_back(event);
  }
  auto tail = next("end");
  PMACX_CHECK(!tail.empty() && tail[0] == "end", "missing comm trace end marker");
  return trace;
}

}  // namespace pmacx::trace
