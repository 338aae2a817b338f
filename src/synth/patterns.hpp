// Memory access pattern generators.
//
// These play the role of the instrumented binary's address stream: each
// kernel (basic block) of a synthetic application owns a data region and a
// pattern, and the tracer pulls a stream of MemRefs from the pattern into
// the cache simulator exactly the way PEBIL's instrumentation feeds the
// PMaC tracer on the fly (Fig. 2 of the paper).
//
// Patterns cover the locality classes the MultiMAPS machine profile probes:
// stride-1 streams, fixed larger strides, uniform random accesses within a
// footprint, index-driven gathers, and 3-D stencil neighbourhoods.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "memsim/hierarchy.hpp"
#include "util/rng.hpp"

namespace pmacx::synth {

/// Locality classes for generated reference streams.
enum class Pattern {
  Sequential,  ///< stride-1 walk, wrapping over the footprint
  Strided,     ///< fixed-stride walk (stride in elements)
  Random,      ///< uniform random element within the footprint
  Gather,      ///< sequential index read + random data read (indirect access)
  Stencil3d,   ///< 7-point stencil sweep over a cubic grid
};

/// Stable pattern names for reports.
std::string pattern_name(Pattern pattern);

/// Parameters of one stream.
struct StreamSpec {
  Pattern pattern = Pattern::Sequential;
  std::uint64_t base_addr = 0;        ///< start of the kernel's data region
  std::uint64_t footprint_bytes = 0;  ///< region size (must be ≥ elem_bytes)
  std::uint32_t elem_bytes = 8;       ///< size of one reference
  std::uint32_t stride_elems = 1;     ///< Strided: distance between accesses
  double store_fraction = 0.25;       ///< fraction of refs that are stores
};

/// A deterministic reference stream: the spec's pattern drawn from a seeded
/// rng.  The stream carries its own position, so callers can interleave
/// kernels.  fill() is the one generator; next() is a fill of one, and
/// any split of a stream into fills and next() calls yields the same
/// sequence.
class RefStream {
 public:
  /// Validates the spec (footprint ≥ one element, non-zero element size).
  RefStream(const StreamSpec& spec, std::uint64_t seed);

  /// Generates the next `n` references: addr[k] and store[k] (1 = store)
  /// for k in [0, n).  Every reference is spec().elem_bytes wide.
  void fill(std::uint64_t* addr, std::uint8_t* store, std::size_t n);

  /// Generates the next reference.
  memsim::MemRef next();

  const StreamSpec& spec() const { return spec_; }

 private:
  StreamSpec spec_;
  util::Rng rng_;
  std::uint64_t elems_;         ///< footprint in elements
  std::uint64_t reject_below_;  ///< Rng::below_threshold(elems_)
  std::uint64_t step_ = 0;      ///< Strided: stride_elems % elems_
  /// Running element position: the next element (Sequential, Strided),
  /// the next index-array element (Gather) or the current grid point
  /// (Stencil3d).  Always below elems_ (points_ for Stencil3d).
  std::uint64_t pos_ = 0;
  /// Gather: 0 when the index read comes next, 1 for the data read.
  /// Stencil3d: the arm (0..6) of the current point's next reference.
  std::uint32_t phase_ = 0;
  // Stencil3d geometry: cubic grid with side_ elements per dimension, and
  // each arm's neighbour offset reduced modulo the point count.
  std::uint64_t side_ = 0;
  std::uint64_t plane_ = 0;
  std::uint64_t points_ = 0;
  std::array<std::uint64_t, 7> arm_offset_{};
};

}  // namespace pmacx::synth
