// The one reference-replay loop.
//
// Fig. 2's collection step streams each kernel's addresses through one
// on-the-fly simulator of the target's caches.  Three consumers run that
// loop: the tracer (hit rates per basic block and instruction), the
// reference "measured" run (per-reference timing) and the MultiMAPS probe
// (bandwidth samples).  They share this code: it builds a kernel's
// per-thread streams, fills RefBlocks from them with one RefStream::fill
// per stream and block, decides which thread issues each reference, and
// hands every block to the hierarchy in one access_block call, switching
// accounting scope only between blocks.  Staging order is replay order,
// so every counter matches a reference-at-a-time walk.
#pragma once

#include <cstdint>
#include <vector>

#include "memsim/hierarchy.hpp"
#include "synth/kernel.hpp"
#include "synth/patterns.hpp"

namespace pmacx::synth {

/// Seed of the kernel streams.  The tracer's default, and the reference
/// run's, so the "machine" executes exactly the streams the tracer saw.
inline constexpr std::uint64_t kStreamSeed = 0x7ace;

/// One stream per thread, thread t over the t-th line-aligned slice of the
/// kernel's footprint (an OpenMP-style static partition; pure MPI is one
/// thread over the whole region).  Kernel regions start at block_id << 40,
/// so kernels do not alias in the simulated caches, like distinct
/// allocations in a real address space.
std::vector<RefStream> kernel_streams(const KernelSpec& kernel, std::uint32_t threads,
                                      std::uint32_t line_bytes, std::uint64_t seed);

/// Streams `refs` references through `sim`, which must simulate one thread
/// per stream.  Reference i comes from streams[i % streams.size()], issued
/// by that thread (round-robin), and is charged to scope
/// first_scope + (i · scopes) / refs: `scopes` consecutive, equal chunks,
/// so early chunks absorb the cold misses and later ones run warm.  A
/// chunk that receives no reference opens no scope.  Records the call's
/// generation and simulation wall time, one sample each, in the
/// synth.replay.generate.wall_ns and synth.replay.simulate.wall_ns timers.
void replay(memsim::CacheHierarchy& sim, std::vector<RefStream>& streams,
            std::uint64_t refs, std::uint64_t first_scope, std::uint32_t scopes = 1);

}  // namespace pmacx::synth
