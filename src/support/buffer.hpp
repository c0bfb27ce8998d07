#pragma once

// Byte buffers and typed <-> raw-byte span conversions.
//
// All message payloads in the simulator are carried as contiguous byte
// buffers; typed access is restricted to trivially copyable element types so
// a memcpy round-trip is always well-defined.

#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

namespace repmpi::support {

using Buffer = std::vector<std::byte>;

template <typename T>
concept TriviallyCopyable = std::is_trivially_copyable_v<T>;

/// Allocator whose value-construct is default-init: `UninitVector<double>
/// v(n)` allocates without the O(n) zero-fill. For scratch arrays that are
/// fully written before any read (apps allocate them per run at MB sizes,
/// where the zeroing is pure memory-bandwidth waste). Reads before the first
/// write are indeterminate — callers must guarantee full initialization.
template <TriviallyCopyable T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <TriviallyCopyable T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

/// Views an object (or contiguous array) as raw bytes.
template <TriviallyCopyable T>
std::span<const std::byte> as_bytes_of(const T& value) {
  return std::as_bytes(std::span<const T, 1>(&value, 1));
}

template <TriviallyCopyable T>
std::span<const std::byte> as_bytes_of(std::span<const T> values) {
  return std::as_bytes(values);
}

template <TriviallyCopyable T>
std::span<std::byte> as_writable_bytes_of(T& value) {
  return std::as_writable_bytes(std::span<T, 1>(&value, 1));
}

template <TriviallyCopyable T>
std::span<std::byte> as_writable_bytes_of(std::span<T> values) {
  return std::as_writable_bytes(values);
}

/// Reinterprets a byte buffer as a value of type T (sizes must match).
template <TriviallyCopyable T>
T from_buffer(std::span<const std::byte> bytes) {
  T value{};
  if (bytes.size() != sizeof(T)) {
    // Callers are expected to validate sizes; a mismatch here is a protocol
    // bug, so fail loudly in debug and truncate defensively in release.
    std::memcpy(&value, bytes.data(),
                bytes.size() < sizeof(T) ? bytes.size() : sizeof(T));
    return value;
  }
  std::memcpy(&value, bytes.data(), sizeof(T));
  return value;
}

/// Copies a byte buffer into a typed destination span; returns elements copied.
template <TriviallyCopyable T>
std::size_t copy_into(std::span<const std::byte> bytes, std::span<T> dst) {
  const std::size_t n =
      std::min(bytes.size() / sizeof(T), dst.size());
  std::memcpy(dst.data(), bytes.data(), n * sizeof(T));
  return n;
}

/// Typed view over a byte buffer (size must be a multiple of sizeof(T)).
template <TriviallyCopyable T>
std::span<const T> typed_view(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const T*>(bytes.data()), bytes.size() / sizeof(T)};
}

}  // namespace repmpi::support
