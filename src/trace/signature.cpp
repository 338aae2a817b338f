#include "trace/signature.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "trace/binary_io.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pmacx::trace {

AppSignature AppSignature::for_task(TaskTrace task, std::vector<CommTrace> comm) {
  PMACX_CHECK(comm.size() == task.core_count,
              "signature needs one comm trace per rank (got " + std::to_string(comm.size()) +
                  " of " + std::to_string(task.core_count) + ")");
  AppSignature signature;
  signature.app = task.app;
  signature.core_count = task.core_count;
  signature.target_system = task.target_system;
  signature.demanding_rank = task.rank;
  signature.tasks.push_back(std::move(task));
  signature.comm = std::move(comm);
  signature.validate();
  return signature;
}

const TaskTrace* AppSignature::task_for_rank(std::uint32_t rank) const {
  for (const auto& task : tasks)
    if (task.rank == rank) return &task;
  return nullptr;
}

const TaskTrace& AppSignature::demanding_task() const {
  const TaskTrace* task = task_for_rank(demanding_rank);
  PMACX_CHECK(task != nullptr,
              "signature does not contain a trace for the demanding rank " +
                  std::to_string(demanding_rank));
  return *task;
}

void AppSignature::validate() const {
  PMACX_CHECK(core_count > 0, "signature with zero cores");
  PMACX_CHECK(!tasks.empty(), "signature with no task traces");
  for (const auto& task : tasks) {
    PMACX_CHECK(task.app == app, "task trace app mismatch");
    PMACX_CHECK(task.core_count == core_count, "task trace core count mismatch");
    PMACX_CHECK(task.rank < core_count, "task trace rank out of range");
  }
  if (!comm.empty()) {
    PMACX_CHECK(comm.size() == core_count,
                "comm traces must cover every rank (got " + std::to_string(comm.size()) +
                    " of " + std::to_string(core_count) + ")");
    for (std::uint32_t r = 0; r < core_count; ++r) {
      PMACX_CHECK(comm[r].rank == r, "comm trace rank order mismatch");
      PMACX_CHECK(comm[r].core_count == core_count, "comm trace core count mismatch");
    }
  }
  PMACX_CHECK(demanding_rank < core_count, "demanding rank out of range");
}

std::size_t AppSignature::memory_bytes() const {
  std::size_t total = sizeof(*this) + app.capacity() + target_system.capacity();
  for (const auto& task : tasks) total += task.memory_bytes();
  for (const auto& trace : comm) {
    total += sizeof(trace);
    total += trace.events.capacity() * sizeof(CommEvent);
  }
  return total;
}

void AppSignature::save(const std::string& directory) const {
  validate();
  namespace fs = std::filesystem;
  fs::create_directories(directory);

  {
    std::ofstream meta(fs::path(directory) / "signature.meta", std::ios::trunc);
    PMACX_CHECK(meta.good(), "cannot write signature.meta in '" + directory + "'");
    meta << "pmacx-signature\t1\n";
    meta << "app\t" << app << '\n';
    meta << "cores\t" << core_count << '\n';
    meta << "target\t" << target_system << '\n';
    meta << "demanding\t" << demanding_rank << '\n';
    meta << "tasks";
    for (const auto& task : tasks) meta << '\t' << task.rank;
    meta << '\n';
    meta << "comm\t" << comm.size() << '\n';
    PMACX_CHECK(meta.good(), "write to signature.meta failed");
  }

  for (const auto& task : tasks) {
    const fs::path path =
        fs::path(directory) / ("task_" + std::to_string(task.rank) + ".trace");
    save_binary(task, path.string());
  }

  std::ofstream comm_out(fs::path(directory) / "comm.txt", std::ios::trunc);
  PMACX_CHECK(comm_out.good(), "cannot write comm.txt in '" + directory + "'");
  for (const auto& timeline : comm) comm_out << timeline.to_text();
  PMACX_CHECK(comm_out.good(), "write to comm.txt failed");
}

AppSignature AppSignature::load(const std::string& directory) {
  namespace fs = std::filesystem;
  std::ifstream meta(fs::path(directory) / "signature.meta");
  PMACX_CHECK(meta.good(), "cannot open signature.meta in '" + directory + "'");

  AppSignature signature;
  std::string line;
  std::vector<std::uint32_t> task_ranks;
  std::size_t comm_count = 0;
  bool magic_seen = false;
  while (std::getline(meta, line)) {
    if (line.empty()) continue;
    const auto fields = util::split(line, '\t');
    if (!magic_seen) {
      PMACX_CHECK(fields.size() >= 2 && fields[0] == "pmacx-signature" && fields[1] == "1",
                  "not a pmacx signature directory");
      magic_seen = true;
      continue;
    }
    PMACX_CHECK(fields.size() >= 2, "malformed signature.meta line: " + line);
    if (fields[0] == "app") {
      signature.app = fields[1];
    } else if (fields[0] == "cores") {
      signature.core_count =
          static_cast<std::uint32_t>(util::parse_u64(fields[1], "cores"));
    } else if (fields[0] == "target") {
      signature.target_system = fields[1];
    } else if (fields[0] == "demanding") {
      signature.demanding_rank =
          static_cast<std::uint32_t>(util::parse_u64(fields[1], "demanding"));
    } else if (fields[0] == "tasks") {
      for (std::size_t i = 1; i < fields.size(); ++i)
        task_ranks.push_back(
            static_cast<std::uint32_t>(util::parse_u64(fields[i], "task rank")));
    } else if (fields[0] == "comm") {
      comm_count = util::parse_u64(fields[1], "comm count");
    } else {
      PMACX_CHECK(false, "unknown signature.meta key '" + fields[0] + "'");
    }
  }
  PMACX_CHECK(magic_seen, "empty signature.meta");

  for (std::uint32_t rank : task_ranks) {
    const fs::path path = fs::path(directory) / ("task_" + std::to_string(rank) + ".trace");
    signature.tasks.push_back(TaskTrace::load(path.string()));
  }

  if (comm_count > 0) {
    std::ifstream comm_in(fs::path(directory) / "comm.txt");
    PMACX_CHECK(comm_in.good(), "cannot open comm.txt in '" + directory + "'");
    std::ostringstream buffer;
    buffer << comm_in.rdbuf();
    const std::string all = buffer.str();
    // Comm traces are concatenated; split on the end-of-record marker.
    std::size_t offset = 0;
    // Clamp against a corrupted count: the smallest comm trace text (header,
    // rank, cores, tail, events, end marker) is 48 bytes.
    signature.comm.reserve(std::min<std::size_t>(comm_count, all.size() / 48));
    for (std::size_t i = 0; i < comm_count; ++i) {
      const std::size_t end = all.find("end\n", offset);
      PMACX_CHECK(end != std::string::npos, "comm.txt truncated");
      signature.comm.push_back(
          CommTrace::from_text(all.substr(offset, end + 4 - offset)));
      offset = end + 4;
    }
  }

  signature.validate();
  return signature;
}

}  // namespace pmacx::trace
