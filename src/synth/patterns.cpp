#include "synth/patterns.hpp"

#include <cmath>

#include "util/error.hpp"

namespace pmacx::synth {

std::string pattern_name(Pattern pattern) {
  switch (pattern) {
    case Pattern::Sequential: return "sequential";
    case Pattern::Strided: return "strided";
    case Pattern::Random: return "random";
    case Pattern::Gather: return "gather";
    case Pattern::Stencil3d: return "stencil3d";
  }
  return "?";
}

RefStream::RefStream(const StreamSpec& spec, std::uint64_t seed) : spec_(spec), rng_(seed) {
  PMACX_CHECK(spec_.elem_bytes > 0, "stream element size must be positive");
  PMACX_CHECK(spec_.footprint_bytes >= spec_.elem_bytes,
              "stream footprint smaller than one element");
  PMACX_CHECK(spec_.stride_elems > 0, "stream stride must be positive");
  PMACX_CHECK(spec_.store_fraction >= 0.0 && spec_.store_fraction <= 1.0,
              "store fraction out of [0,1]");
  elems_ = spec_.footprint_bytes / spec_.elem_bytes;
  reject_below_ = util::Rng::below_threshold(elems_);
  step_ = spec_.stride_elems % elems_;

  if (spec_.pattern == Pattern::Stencil3d) {
    side_ = static_cast<std::uint64_t>(std::cbrt(static_cast<double>(elems_)));
    if (side_ < 4) side_ = 4;
    while (side_ * side_ * side_ > elems_ && side_ > 4) --side_;
    plane_ = side_ * side_;
    points_ = plane_ * side_;
    // The point itself, then its six face neighbours: ±1, ±side, ±plane.
    // Each offset is below points_ in magnitude, so one conditional
    // subtraction wraps point + offset back into the grid.
    arm_offset_ = {0, 1, points_ - 1, side_, points_ - side_, plane_, points_ - plane_};
  }
}

void RefStream::fill(std::uint64_t* addr, std::uint8_t* store, std::size_t n) {
  // Local copies: `store` is a byte array that may alias any member, so
  // state kept in members would be reloaded after every write.
  util::Rng rng = rng_;
  std::uint64_t pos = pos_;
  std::uint32_t phase = phase_;
  const std::uint64_t elems = elems_;
  const std::uint64_t reject_below = reject_below_;
  const std::uint64_t base = spec_.base_addr;
  const std::uint64_t elem_bytes = spec_.elem_bytes;
  const double store_fraction = spec_.store_fraction;
  // A reference's element draw, if any, comes before its store draw.
  const auto emit = [&](std::size_t k, std::uint64_t elem) {
    addr[k] = base + elem * elem_bytes;
    store[k] = rng.uniform() < store_fraction ? 1 : 0;
  };
  switch (spec_.pattern) {
    case Pattern::Sequential:
      for (std::size_t k = 0; k < n; ++k) {
        emit(k, pos);
        if (++pos == elems) pos = 0;
      }
      break;
    case Pattern::Strided: {
      // Element (k · stride) mod elems, advanced by the reduced stride.
      const std::uint64_t step = step_;
      for (std::size_t k = 0; k < n; ++k) {
        emit(k, pos);
        pos += step;
        if (pos >= elems) pos -= elems;
      }
      break;
    }
    case Pattern::Random:
      for (std::size_t k = 0; k < n; ++k) emit(k, rng.below(elems, reject_below));
      break;
    case Pattern::Gather:
      // Alternate a sequential index-array read with a random data read,
      // modeling a[idx[i]]-style indirection.
      for (std::size_t k = 0; k < n; ++k) {
        if (phase == 0) {
          emit(k, pos);
          if (++pos == elems) pos = 0;
        } else {
          emit(k, rng.below(elems, reject_below));
        }
        phase ^= 1;
      }
      break;
    case Pattern::Stencil3d: {
      // Sweep grid points in order; each point touches itself and its six
      // face neighbours across successive references.
      const std::array<std::uint64_t, 7> offset = arm_offset_;
      const std::uint64_t points = points_;
      for (std::size_t k = 0; k < n; ++k) {
        std::uint64_t elem = pos + offset[phase];
        if (elem >= points) elem -= points;
        emit(k, elem);
        if (++phase == 7) {
          phase = 0;
          if (++pos == points) pos = 0;
        }
      }
      break;
    }
  }
  rng_ = rng;
  pos_ = pos;
  phase_ = phase;
}

memsim::MemRef RefStream::next() {
  std::uint64_t addr = 0;
  std::uint8_t store = 0;
  fill(&addr, &store, 1);
  memsim::MemRef ref;
  ref.addr = addr;
  ref.size = spec_.elem_bytes;
  ref.is_store = store != 0;
  return ref;
}

}  // namespace pmacx::synth
