#ifndef GRASP_COMMON_ALIGNED_H_
#define GRASP_COMMON_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace grasp {

/// Cache-line alignment for every owned flat array: 64 bytes is exactly one
/// cache line, so a sweep never splits a line at the start of a buffer.
inline constexpr std::size_t kFlatAlignment = 64;

/// Minimal aligned allocator (C++17 aligned operator new). All instances
/// compare equal, so containers can move buffers between them freely.
template <typename T, std::size_t Alignment = kFlatAlignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::align_val_t kAlign{
      Alignment > alignof(T) ? Alignment : alignof(T)};

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}  // NOLINT

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, kAlign);
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

/// A std::vector whose heap buffer starts on a kFlatAlignment boundary.
/// This is the owned-storage type behind FlatStorage and the pooled scratch
/// arrays of the hot loops; mapped snapshot sections are page-aligned
/// already, so every flat array starts at least 64-byte aligned (interior
/// subspans can still start anywhere).
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace grasp

#endif  // GRASP_COMMON_ALIGNED_H_
