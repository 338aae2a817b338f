// Arena-staged blocks of memory references, structure-of-arrays.
//
// Replaying a trace one MemRef at a time pays a generator call and a full
// per-reference dispatch per access.  A RefBlock stages a few thousand
// references into flat addr/size/store/thread arrays carved out of a
// util::Arena (one bump allocation per block, reused across refills) and
// the hierarchy replays the whole block in one call.  Replay order is
// exactly the staging order, so counters are identical to the
// one-at-a-time path.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/arena.hpp"

namespace pmacx::memsim {

/// A borrowed, read-only view of staged references.  The arrays live in
/// whatever storage the producer staged them into (typically an Arena);
/// the view must not outlive it.
struct RefBlock {
  const std::uint64_t* addr = nullptr;
  const std::uint32_t* size = nullptr;
  const std::uint8_t* is_store = nullptr;
  std::size_t count = 0;
  /// Issuing thread of each reference in a hybrid hierarchy; null means
  /// every reference comes from thread 0.
  const std::uint32_t* thread = nullptr;
};

/// Fixed-capacity staging buffer for RefBlocks, arena-backed.
class RefBlockBuilder {
 public:
  RefBlockBuilder(util::Arena& arena, std::size_t capacity)
      : addr_(arena.allocate<std::uint64_t>(capacity)),
        size_(arena.allocate<std::uint32_t>(capacity)),
        store_(arena.allocate<std::uint8_t>(capacity)),
        thread_(arena.allocate<std::uint32_t>(capacity)),
        capacity_(capacity) {}

  bool full() const { return count_ == capacity_; }
  std::size_t count() const { return count_; }

  void push(std::uint64_t addr, std::uint32_t size, bool is_store,
            std::uint32_t thread = 0) {
    addr_[count_] = addr;
    size_[count_] = size;
    store_[count_] = is_store ? 1 : 0;
    thread_[count_] = thread;
    ++count_;
  }

  RefBlock block() const { return {addr_, size_, store_, count_, thread_}; }

  /// Empties the builder for the next refill; storage is reused.
  void clear() { count_ = 0; }

 private:
  std::uint64_t* addr_;
  std::uint32_t* size_;
  std::uint8_t* store_;
  std::uint32_t* thread_;
  std::size_t capacity_;
  std::size_t count_ = 0;
};

}  // namespace pmacx::memsim
