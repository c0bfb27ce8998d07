#pragma once

// RecyclingAllocator: a thread-local free list for fixed-size blocks.
//
// Objects that churn once per message — the simmpi layer's request states
// with their shared_ptr control blocks — are made through
// std::allocate_shared with this allocator, so a freed block is handed to
// the next allocation of the same type instead of going back to malloc.
//
// Threading follows support::Payload's block pool: each thread owns one free
// list per block type, with no lock on the hot path. A block freed on a
// different thread than it was made on lands in the freeing thread's list;
// blocks are plain ::operator new allocations, so that is safe. The lists
// are bounded and freed at thread exit.

#include <cstddef>
#include <new>

namespace repmpi::support {

template <typename T>
class RecyclingAllocator {
 public:
  using value_type = T;

  /// Blocks kept per thread and type; frees beyond this go to the heap.
  static constexpr std::size_t kMaxFree = 4096;

  RecyclingAllocator() noexcept = default;
  template <typename U>
  RecyclingAllocator(const RecyclingAllocator<U>&) noexcept {}  // NOLINT

  T* allocate(std::size_t n) {
    if (n == 1) {
      FreeList& fl = free_list();
      if (fl.head != nullptr) {
        Block* b = fl.head;
        fl.head = b->next;
        --fl.count;
        return reinterpret_cast<T*>(b);
      }
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n == 1) {
      FreeList& fl = free_list();
      if (fl.count < kMaxFree) {
        Block* b = ::new (static_cast<void*>(p)) Block{fl.head};
        fl.head = b;
        ++fl.count;
        return;
      }
    }
    ::operator delete(p);
  }

  /// Any instance may free what another allocated.
  template <typename U>
  bool operator==(const RecyclingAllocator<U>&) const noexcept {
    return true;
  }

 private:
  struct Block {
    Block* next;
  };
  static_assert(sizeof(T) >= sizeof(Block));
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  struct FreeList {
    Block* head = nullptr;
    std::size_t count = 0;
    ~FreeList() {
      while (head != nullptr) {
        Block* next = head->next;
        ::operator delete(head);
        head = next;
      }
    }
  };

  static FreeList& free_list() {
    thread_local FreeList fl;
    return fl;
  }
};

}  // namespace repmpi::support
