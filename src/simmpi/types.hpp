#pragma once

// Common MPI-substrate types: status, the no-peer marker, reduction
// operators. There are no wildcards: every receive names one (channel,
// source, tag) key.

#include <cstddef>
#include <cstdint>

namespace repmpi::mpi {

/// World rank a receive watches for death when it watches none: a death
/// never fails it (a mailbox that any peer may write to).
constexpr int kNoPeer = -1;

/// Result of a completed receive (or a failed one: `failed` is set when the
/// awaited peer was declared dead before a matching message arrived —
/// Algorithm 1, line 41 of the paper relies on this signal). Source and tag
/// are the receive's own key.
struct Status {
  std::size_t bytes = 0;
  bool failed = false;
};

/// Element-wise reduction operators for typed collectives.
enum class ReduceOp { kSum, kMax, kMin, kProd };

template <typename T>
T apply_op(ReduceOp op, T a, T b) {
  switch (op) {
    case ReduceOp::kSum:
      return a + b;
    case ReduceOp::kMax:
      return a > b ? a : b;
    case ReduceOp::kMin:
      return a < b ? a : b;
    case ReduceOp::kProd:
      return a * b;
  }
  return a;
}

}  // namespace repmpi::mpi
