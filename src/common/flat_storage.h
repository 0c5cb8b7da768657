#ifndef GRASP_COMMON_FLAT_STORAGE_H_
#define GRASP_COMMON_FLAT_STORAGE_H_

#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>

#include "common/aligned.h"

namespace grasp {

/// Storage for a flat immutable array that is either *owned* (an
/// `AlignedVector` built in memory) or *borrowed* (a `std::span` over an
/// external buffer, typically an mmap-ed index snapshot). All reads go
/// through one span, so the owning and borrowed cases are indistinguishable
/// to callers; the distinction only shows up in memory accounting
/// (OwnedBytes) and lifetime (a borrowed view must not outlive its mapping).
///
/// This is the storage abstraction that lets every CSR array in the system
/// point straight into a snapshot file instead of copying it at load time.
/// Owned buffers start on a kFlatAlignment (64-byte) cache-line boundary.
template <typename T>
class FlatStorage {
  static_assert(std::is_trivially_copyable_v<T>,
                "FlatStorage elements must be trivially copyable (they are "
                "written to and mapped back from snapshot files)");

 public:
  FlatStorage() = default;

  /// Takes ownership of `owned`.
  explicit FlatStorage(AlignedVector<T> owned)
      : owned_(std::move(owned)), view_(owned_) {}

  /// Borrows `view`; the underlying buffer must outlive this object.
  static FlatStorage Borrow(std::span<const T> view) {
    FlatStorage s;
    s.view_ = view;
    return s;
  }

  // Moves are safe with the default implementations: moving a std::vector
  // transfers its heap buffer without relocating it, so the copied span
  // still points at live storage owned by the destination.
  FlatStorage(FlatStorage&&) noexcept = default;
  FlatStorage& operator=(FlatStorage&&) noexcept = default;

  // Copying always materializes an owned copy of the viewed elements —
  // copies never alias a mapping they do not keep alive (the materialized
  // augmentation build copies the base CSR through this).
  FlatStorage(const FlatStorage& other)
      : owned_(other.view_.begin(), other.view_.end()), view_(owned_) {}
  FlatStorage& operator=(const FlatStorage& other) {
    if (this != &other) {
      owned_.assign(other.view_.begin(), other.view_.end());
      view_ = owned_;
    }
    return *this;
  }

  const T* data() const { return view_.data(); }
  std::size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  const T& operator[](std::size_t i) const { return view_[i]; }
  const T* begin() const { return view_.data(); }
  const T* end() const { return view_.data() + view_.size(); }

  std::span<const T> view() const { return view_; }
  operator std::span<const T>() const { return view_; }  // NOLINT

  /// True when the elements live in an external buffer (snapshot mapping).
  bool borrowed() const { return owned_.empty() && !view_.empty(); }

  /// Heap bytes owned by this object; 0 for a borrowed view. Mapped bytes
  /// are accounted separately (IndexStats::mapped_snapshot_bytes) so
  /// resident-memory reporting stays honest in warm-started engines.
  std::size_t OwnedBytes() const { return owned_.capacity() * sizeof(T); }

 private:
  AlignedVector<T> owned_;
  std::span<const T> view_;
};

}  // namespace grasp

#endif  // GRASP_COMMON_FLAT_STORAGE_H_
