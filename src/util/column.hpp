// Columns that a parallel stage fills.
//
// std::vector::resize value-initializes every new element serially on the
// calling thread: for a column of a hundred megabytes that is tens of
// milliseconds of page faults and zeroing, just before a pool stage
// overwrites every element anyway.  util::Column<T> is a std::vector whose
// resize(n) leaves new elements uninitialized, so the first write to each
// one — and the page fault behind it — lands on whichever worker fills it.
//
// Only for trivially copyable element types, and only for columns whose
// filling stage writes every element before anything reads it.  Copies,
// resize(n, value) and push_back initialize as usual.
#pragma once

#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace pmacx::util {

template <typename T>
struct UninitializedAllocator : std::allocator<T> {
  static_assert(std::is_trivially_copyable_v<T>);
  template <typename U>
  struct rebind {
    using other = UninitializedAllocator<U>;
  };

  UninitializedAllocator() = default;
  template <typename U>
  UninitializedAllocator(const UninitializedAllocator<U>&) noexcept {}

  /// Default construction (what resize(n) asks for) leaves the element as
  /// allocated.
  template <typename U>
  void construct(U*) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }
};

template <typename T>
using Column = std::vector<T, UninitializedAllocator<T>>;

}  // namespace pmacx::util
