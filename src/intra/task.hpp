#pragma once

// Task model for intra-parallelization (paper Section III-B/III-C).
//
// A *section* is a block of computation with no message passing whose tasks
// are input-dependent only (they may read shared inputs but never read each
// other's outputs), so any subset can run on any replica in any order. Each
// task is a registered function plus a set of argument bindings tagged
// in / out / inout; after execution, out and inout arguments form the
// *update* shipped to the other replicas.

#include <cstddef>
#include <functional>
#include <span>

#include "net/machine_model.hpp"
#include "support/buffer.hpp"
#include "support/error.hpp"

namespace repmpi::intra {

/// Argument intent (paper: in / out / inout). inout arguments are the ones
/// needing the extra-copy discipline of Fig. 2 to keep re-execution safe.
enum class ArgTag { kIn, kOut, kInOut };

struct ArgSpec {
  ArgTag tag = ArgTag::kIn;
  /// Element size in bytes (documentation/cost accounting; transfers are
  /// byte-exact regardless).
  std::size_t elem_size = 1;
};

/// Upper bound on a task's arguments. The runtime holds a task's bindings
/// and its update receives inline up to this count, so launching a task
/// costs no heap allocation.
inline constexpr std::size_t kMaxArgsPerTask = 8;

/// A task's view of its bound arguments. It refers to the runtime's task
/// record and is valid only during the task-body call it is passed to.
class TaskArgs {
 public:
  TaskArgs(std::span<const ArgSpec> specs,
           std::span<const std::span<std::byte>> bindings)
      : specs_(specs), bindings_(bindings) {}

  std::size_t count() const { return bindings_.size(); }

  std::span<std::byte> raw(std::size_t i) {
    REPMPI_CHECK(i < bindings_.size());
    return bindings_[i];
  }

  std::span<const std::byte> raw(std::size_t i) const {
    REPMPI_CHECK(i < bindings_.size());
    return bindings_[i];
  }

  /// Typed mutable view of argument i.
  template <support::TriviallyCopyable T>
  std::span<T> get(std::size_t i) {
    auto b = raw(i);
    REPMPI_CHECK_MSG(b.size() % sizeof(T) == 0,
                     "arg " << i << " size not a multiple of element size");
    return {reinterpret_cast<T*>(b.data()), b.size() / sizeof(T)};
  }

  /// Typed read-only view of argument i.
  template <support::TriviallyCopyable T>
  std::span<const T> in(std::size_t i) const {
    auto b = raw(i);
    return {reinterpret_cast<const T*>(b.data()), b.size() / sizeof(T)};
  }

  /// Scalar access (argument must be exactly one T).
  template <support::TriviallyCopyable T>
  T& scalar(std::size_t i) {
    auto s = get<T>(i);
    REPMPI_CHECK(s.size() == 1);
    return s[0];
  }

  template <support::TriviallyCopyable T>
  const T& scalar_in(std::size_t i) const {
    auto s = in<T>(i);
    REPMPI_CHECK(s.size() == 1);
    return s[0];
  }

  const ArgSpec& spec(std::size_t i) const { return specs_[i]; }

 private:
  std::span<const ArgSpec> specs_;
  std::span<const std::span<std::byte>> bindings_;
};

/// Task body: performs the real computation on its arguments and returns its
/// cost in machine-model units (flops + memory traffic), which the runtime
/// charges to virtual time. Bodies must be deterministic functions of their
/// arguments — that is what makes re-execution after a crash safe.
using TaskFn = std::function<net::ComputeCost(TaskArgs&)>;

/// Binds a contiguous memory region as a task argument.
struct Binding {
  void* ptr = nullptr;
  std::size_t bytes = 0;

  template <support::TriviallyCopyable T>
  static Binding of(std::span<T> s) {
    return Binding{s.data(), s.size_bytes()};
  }

  template <support::TriviallyCopyable T>
  static Binding scalar(T& v) {
    return Binding{&v, sizeof(T)};
  }
};

/// Scheduling policies for assigning tasks to alive replica lanes.
enum class SchedulePolicy {
  /// Paper Section V-A: the first N/R launched tasks run on replica 0, the
  /// next N/R on replica 1, and so on.
  kStaticBlock,
  /// Tasks alternate across lanes (i mod R) — spreads heterogeneous tasks.
  kRoundRobin,
  /// Longest-processing-time greedy over the weights passed to launch():
  /// heaviest task first, always to the least-loaded lane. The "more
  /// complex strategies ... to deal with load imbalance" the paper's
  /// Section V-A anticipates. Deterministic, so all replicas agree.
  kWeighted,
};

}  // namespace repmpi::intra
