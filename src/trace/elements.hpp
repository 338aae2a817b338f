// The feature-vector schema.
//
// Section III-B: "Each basic block for a given MPI task or core is
// represented by a feature vector which contains (1) amount and composition
// of floating point work, (2) number of memory operations, (3) size of
// memory operations, (4) cache hit rates in all levels of the target system
// and (5) working set size."  Section IV adds instruction-level detail
// ("data for each instruction of all basic blocks").
//
// Elements are identified by small enums so traces stay flat arrays of
// doubles; the extrapolator treats each element independently (Fig. 3) and
// uses the metadata here (is_rate / is_count) to clamp extrapolated values
// into their valid domain.
#pragma once

#include <array>
#include <cstddef>
#include <string>

namespace pmacx::trace {

/// Block-level feature-vector elements.
enum class BlockElement : std::size_t {
  VisitCount,       ///< times the block was entered
  FpAdd,            ///< floating-point adds/subs executed
  FpMul,            ///< floating-point multiplies executed
  FpFma,            ///< fused multiply-adds executed
  FpDivSqrt,        ///< divides and square roots executed
  MemLoads,         ///< load references executed
  MemStores,        ///< store references executed
  BytesPerRef,      ///< mean size of one memory reference in bytes
  HitRateL1,        ///< cumulative target-system hit rate at L1
  HitRateL2,        ///< cumulative target-system hit rate at ≤ L2
  HitRateL3,        ///< cumulative target-system hit rate at ≤ L3
  WorkingSetBytes,  ///< size of the block's data region (its kernel's footprint)
  Ilp,              ///< mean instruction-level parallelism (independent ops/cycle window)
  DepChainLength,   ///< mean data-dependency chain length in the block
  kCount
};

inline constexpr std::size_t kBlockElementCount =
    static_cast<std::size_t>(BlockElement::kCount);

/// Instruction-level feature-vector elements (per-instruction sub-records).
enum class InstrElement : std::size_t {
  ExecCount,    ///< dynamic executions of the instruction
  MemOps,       ///< memory references it issued
  BytesPerOp,   ///< bytes per reference
  FpOps,        ///< floating-point operations it performed
  HitRateL1,    ///< cumulative hit rate at L1 for its references
  HitRateL2,    ///< cumulative hit rate at ≤ L2
  HitRateL3,    ///< cumulative hit rate at ≤ L3
  kCount
};

inline constexpr std::size_t kInstrElementCount =
    static_cast<std::size_t>(InstrElement::kCount);

/// Flat storage types for the two vectors.
using BlockFeatures = std::array<double, kBlockElementCount>;
using InstrFeatures = std::array<double, kInstrElementCount>;

/// Stable, serialization-safe element names ("visit_count", "hit_rate_l1"...).
std::string block_element_name(BlockElement element);
std::string instr_element_name(InstrElement element);

/// True for elements that are rates confined to [0, 1] (cache hit rates);
/// extrapolated values get clamped into that interval.
bool block_element_is_rate(BlockElement element);
bool instr_element_is_rate(InstrElement element);

/// True for elements that are non-negative counts/sizes; extrapolated values
/// get floored at 0.
bool block_element_is_nonnegative(BlockElement element);
bool instr_element_is_nonnegative(InstrElement element);

}  // namespace pmacx::trace
