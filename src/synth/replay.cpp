#include "synth/replay.hpp"

#include <algorithm>
#include <chrono>

#include "memsim/ref_block.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace pmacx::synth {
namespace {

/// References staged per access_block call.
constexpr std::uint64_t kBlockRefs = 4096;

}  // namespace

std::vector<RefStream> kernel_streams(const KernelSpec& kernel, std::uint32_t threads,
                                      std::uint32_t line_bytes, std::uint64_t seed) {
  PMACX_CHECK(threads > 0, "kernel_streams: zero threads");
  PMACX_CHECK(line_bytes > 0, "kernel_streams: zero line size");
  // Slices are rounded up to whole lines, as real OpenMP partitions are to
  // avoid false sharing: misaligned slices would make a fraction of
  // references straddle two lines and skew every line-granular statistic.
  const std::uint64_t raw = std::max<std::uint64_t>(kernel.footprint_bytes / threads, line_bytes);
  const std::uint64_t slice_bytes = (raw + line_bytes - 1) / line_bytes * line_bytes;
  std::vector<RefStream> streams;
  streams.reserve(threads);
  for (std::uint32_t t = 0; t < threads; ++t) {
    StreamSpec spec;
    spec.pattern = kernel.pattern;
    spec.base_addr = (kernel.block_id << 40) + t * slice_bytes;
    spec.footprint_bytes = slice_bytes;
    spec.elem_bytes = kernel.elem_bytes;
    spec.stride_elems = kernel.stride_elems;
    spec.store_fraction = kernel.store_fraction;
    streams.emplace_back(spec, util::derive_seed(seed, kernel.block_id * 64 + t));
  }
  return streams;
}

void replay(memsim::CacheHierarchy& sim, std::vector<RefStream>& streams,
            std::uint64_t refs, std::uint64_t first_scope, std::uint32_t scopes) {
  PMACX_CHECK(streams.size() == sim.threads(), "replay needs one stream per simulated thread");
  PMACX_CHECK(scopes > 0, "replay needs at least one scope");
  using Clock = std::chrono::steady_clock;
  static util::metrics::Histogram& generate_timer =
      util::metrics::Registry::global().histogram("synth.replay.generate.wall_ns");
  static util::metrics::Histogram& simulate_timer =
      util::metrics::Registry::global().histogram("synth.replay.simulate.wall_ns");

  const std::size_t threads = streams.size();
  util::Arena arena;
  std::uint64_t* addr = arena.allocate<std::uint64_t>(kBlockRefs);
  std::uint32_t* size = arena.allocate<std::uint32_t>(kBlockRefs);
  std::uint8_t* store = arena.allocate<std::uint8_t>(kBlockRefs);
  // One thread fills the block directly and leaves `thread` null.  A hybrid
  // rank generates each thread's share of a block into `share_*`, then
  // interleaves the shares round robin.
  std::uint32_t* thread = nullptr;
  std::uint64_t* share_addr = nullptr;
  std::uint8_t* share_store = nullptr;
  if (threads == 1) {
    std::fill_n(size, kBlockRefs, streams.front().spec().elem_bytes);
  } else {
    thread = arena.allocate<std::uint32_t>(kBlockRefs);
    share_addr = arena.allocate<std::uint64_t>(kBlockRefs / threads + 1);
    share_store = arena.allocate<std::uint8_t>(kBlockRefs / threads + 1);
  }

  // Generation and simulation alternate per block; each lap charges the
  // time since the previous lap to one of them (two clock reads a block).
  std::uint64_t generate_ns = 0;
  std::uint64_t simulate_ns = 0;
  Clock::time_point mark = Clock::now();
  const auto lap = [&mark](std::uint64_t& sum) {
    const Clock::time_point now = Clock::now();
    sum += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark).count());
    mark = now;
  };

  std::uint64_t i = 0;
  for (std::uint64_t chunk = 0; chunk < scopes && i < refs; ++chunk) {
    // Chunk k holds the references with (i · scopes) / refs == k.
    const std::uint64_t end = ((chunk + 1) * refs + scopes - 1) / scopes;
    if (i == end) continue;
    sim.set_scope(first_scope + chunk);
    while (i < end) {
      const auto count = static_cast<std::size_t>(std::min(end - i, kBlockRefs));
      if (threads == 1) {
        streams.front().fill(addr, store, count);
      } else {
        // Reference i + k comes from thread (i + k) % threads.
        for (std::size_t t = 0; t < threads; ++t) {
          const std::size_t first = (t + threads - i % threads) % threads;
          if (first >= count) continue;
          const std::size_t share = (count - first + threads - 1) / threads;
          streams[t].fill(share_addr, share_store, share);
          const std::uint32_t bytes = streams[t].spec().elem_bytes;
          for (std::size_t m = 0, k = first; m < share; ++m, k += threads) {
            addr[k] = share_addr[m];
            size[k] = bytes;
            store[k] = share_store[m];
            thread[k] = static_cast<std::uint32_t>(t);
          }
        }
      }
      lap(generate_ns);
      sim.access_block({addr, size, store, count, thread});
      lap(simulate_ns);
      i += count;
    }
  }
  generate_timer.record(generate_ns);
  simulate_timer.record(simulate_ns);
}

}  // namespace pmacx::synth
