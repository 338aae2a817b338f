#include "synth/replay.hpp"

#include <algorithm>

#include "memsim/ref_block.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
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
  const std::uint64_t threads = streams.size();
  util::Arena arena;
  memsim::RefBlockBuilder block(arena, kBlockRefs);
  std::uint64_t i = 0;
  for (std::uint64_t chunk = 0; chunk < scopes && i < refs; ++chunk) {
    // Chunk k holds the references with (i · scopes) / refs == k.
    const std::uint64_t end = ((chunk + 1) * refs + scopes - 1) / scopes;
    if (i == end) continue;
    sim.set_scope(first_scope + chunk);
    while (i < end) {
      block.clear();
      for (const std::uint64_t stop = std::min(end, i + kBlockRefs); i < stop; ++i) {
        const auto thread = static_cast<std::uint32_t>(i % threads);
        const memsim::MemRef ref = streams[thread].next();
        block.push(ref.addr, ref.size, ref.is_store, thread);
      }
      sim.access_block(block.block());
    }
  }
}

}  // namespace pmacx::synth
