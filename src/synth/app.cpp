#include "synth/app.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace pmacx::synth {

double SyntheticApp::work_units(std::uint32_t cores, std::uint32_t rank) const {
  double total = 0.0;
  for (const KernelSpec& kernel : kernels(cores, rank)) total += kernel.work_units();
  return total;
}

std::uint32_t SyntheticApp::demanding_rank(std::uint32_t /*cores*/) const { return 0; }

std::vector<trace::CommTrace> comm_traces(const SyntheticApp& app, std::uint32_t cores,
                                          util::ThreadPool* pool) {
  auto rank_trace = [&](std::size_t rank) {
    return app.comm_trace(cores, static_cast<std::uint32_t>(rank));
  };
  if (pool != nullptr && !pool->serial())
    return pool->parallel_map<trace::CommTrace>(cores, rank_trace, /*grain=*/64);
  std::vector<trace::CommTrace> comm;
  comm.reserve(cores);
  for (std::size_t rank = 0; rank < cores; ++rank) comm.push_back(rank_trace(rank));
  return comm;
}

double imbalance_factor(std::uint32_t rank, std::uint32_t cores, double amplitude) {
  PMACX_CHECK(cores > 0, "imbalance_factor: zero cores");
  PMACX_CHECK(amplitude >= 0.0, "imbalance_factor: negative amplitude");
  if (cores == 1) return 1.0 + amplitude;
  // cos² profile over half the ring: 1+A at rank 0, decaying smoothly; the
  // tiny linear tilt makes rank 0 the *unique* maximum.
  const double phase = std::numbers::pi * static_cast<double>(rank) /
                       static_cast<double>(cores);
  const double shape = std::cos(phase) * std::cos(phase);
  const double tilt = 1.0 - static_cast<double>(rank) / (1e4 * static_cast<double>(cores));
  return 1.0 + amplitude * shape * tilt;
}

trace::CommTrace build_comm_trace(std::uint32_t cores, std::uint32_t rank,
                                  const CommPattern& pattern) {
  PMACX_CHECK(cores >= 2 && cores % 2 == 0,
              "build_comm_trace requires an even core count >= 2");
  PMACX_CHECK(rank < cores, "rank out of range");

  trace::CommTrace comm;
  comm.rank = rank;
  comm.core_count = cores;

  const bool even = rank % 2 == 0;
  const std::uint32_t right = (rank + 1) % cores;
  const std::uint32_t left = (rank + cores - 1) % cores;

  for (std::uint32_t step = 0; step < pattern.timesteps; ++step) {
    double pending_units = pattern.units_per_step;
    auto emit = [&](trace::CommOp op, std::int32_t peer, std::uint64_t bytes) {
      trace::CommEvent event;
      event.op = op;
      event.peer = peer;
      event.bytes = bytes;
      event.compute_units_before = pending_units;
      pending_units = 0.0;
      comm.events.push_back(event);
    };

    // Phase A: even ranks send right, odd ranks receive from the left.
    if (even)
      emit(trace::CommOp::Send, static_cast<std::int32_t>(right), pattern.halo_bytes);
    else
      emit(trace::CommOp::Recv, static_cast<std::int32_t>(left), pattern.halo_bytes);
    // Phase B: odd ranks send right (wrapping), even ranks receive.
    if (!even)
      emit(trace::CommOp::Send, static_cast<std::int32_t>(right), pattern.halo_bytes);
    else
      emit(trace::CommOp::Recv, static_cast<std::int32_t>(left), pattern.halo_bytes);

    if (pattern.allreduce_every != 0 && (step + 1) % pattern.allreduce_every == 0)
      for (std::uint32_t i = 0; i < pattern.allreduce_count; ++i)
        emit(trace::CommOp::Allreduce, -1, pattern.allreduce_bytes);
    if (pattern.alltoall_every != 0 && (step + 1) % pattern.alltoall_every == 0)
      emit(trace::CommOp::Alltoall, -1, pattern.alltoall_bytes);
  }

  // Small fixed tail: output/teardown work.
  comm.tail_compute_units = pattern.units_per_step * 0.01;
  return comm;
}

}  // namespace pmacx::synth
