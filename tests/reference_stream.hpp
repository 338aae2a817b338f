// Per-reference stream generator, kept as the test oracle for
// synth::RefStream.
//
// This is the generator RefStream::fill replaced: one call per reference,
// a switch per call, and positions recomputed from a reference counter
// with 64-bit divisions (cursor % elems, (cursor · stride) % elems,
// (cursor / 7) % points plus two signed modulos for the stencil).  The
// element draw, when a pattern makes one, comes before the store draw.
// synth_test asserts that fill() and next() reproduce its sequence
// reference by reference for every pattern.
//
// Deliberately not part of pmacx_synth: production code must never grow a
// dependency on the slow generator.
#pragma once

#include <cmath>
#include <cstdint>

#include "memsim/hierarchy.hpp"
#include "synth/patterns.hpp"
#include "util/rng.hpp"

namespace pmacx::test {

class ReferenceRefStream {
 public:
  ReferenceRefStream(const synth::StreamSpec& spec, std::uint64_t seed)
      : spec_(spec), rng_(seed), elems_(spec.footprint_bytes / spec.elem_bytes) {
    if (spec_.pattern == synth::Pattern::Stencil3d) {
      side_ = static_cast<std::uint64_t>(std::cbrt(static_cast<double>(elems_)));
      if (side_ < 4) side_ = 4;
      while (side_ * side_ * side_ > elems_ && side_ > 4) --side_;
      plane_ = side_ * side_;
    }
  }

  memsim::MemRef next() {
    std::uint64_t elem = 0;
    switch (spec_.pattern) {
      case synth::Pattern::Sequential:
        elem = cursor_ % elems_;
        ++cursor_;
        break;
      case synth::Pattern::Strided:
        elem = (cursor_ * spec_.stride_elems) % elems_;
        ++cursor_;
        break;
      case synth::Pattern::Random:
        elem = rng_.below(elems_);
        break;
      case synth::Pattern::Gather:
        if (cursor_ % 2 == 0) {
          elem = (cursor_ / 2) % elems_;
        } else {
          elem = rng_.below(elems_);
        }
        ++cursor_;
        break;
      case synth::Pattern::Stencil3d: {
        const std::uint64_t points = plane_ * side_;
        const std::uint64_t point = (cursor_ / 7) % points;
        const std::uint32_t arm = stencil_point_;
        stencil_point_ = (stencil_point_ + 1) % 7;
        ++cursor_;
        std::int64_t offset = 0;
        switch (arm) {
          case 0: offset = 0; break;
          case 1: offset = 1; break;
          case 2: offset = -1; break;
          case 3: offset = static_cast<std::int64_t>(side_); break;
          case 4: offset = -static_cast<std::int64_t>(side_); break;
          case 5: offset = static_cast<std::int64_t>(plane_); break;
          case 6: offset = -static_cast<std::int64_t>(plane_); break;
        }
        const std::int64_t raw = static_cast<std::int64_t>(point) + offset;
        elem = static_cast<std::uint64_t>((raw % static_cast<std::int64_t>(points) +
                                           static_cast<std::int64_t>(points)) %
                                          static_cast<std::int64_t>(points));
        break;
      }
    }

    memsim::MemRef ref;
    ref.addr = spec_.base_addr + elem * spec_.elem_bytes;
    ref.size = spec_.elem_bytes;
    ref.is_store = rng_.uniform() < spec_.store_fraction;
    return ref;
  }

 private:
  synth::StreamSpec spec_;
  util::Rng rng_;
  std::uint64_t elems_;
  std::uint64_t cursor_ = 0;
  std::uint64_t side_ = 0;
  std::uint64_t plane_ = 0;
  std::uint32_t stencil_point_ = 0;
};

}  // namespace pmacx::test
