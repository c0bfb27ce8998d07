#pragma once

// Event node and ordering shared by the DES scheduler (simulator.hpp) and
// the sharded engine's window arithmetic (time_sync.hpp).
//
// Ordering contract (load-bearing for determinism): events run in strict
// (t, seq) order — virtual time first, globally monotonic sequence number as
// the tie-break — so ties run in schedule order. The Simulator keeps its
// future events in a binary min-heap under EventAfter and same-instant
// events in a FIFO ready lane, and merges the two lanes by (t, seq).
//
// Not thread-safe; instance-local like everything else in the substrate.

#include <cstddef>
#include <cstdint>

namespace repmpi::sim {

/// Virtual time in seconds.
using Time = double;

/// Simulated process id.
using Pid = int;

/// "No process": a callback event, or the scheduler itself.
inline constexpr Pid kNoPid = -1;

/// Pooled event: either a process resume (resume != kNoPid) or a
/// callback stored in `storage` (inline if it fits, else a heap-boxed
/// pointer installed by Simulator::attach_callable). `next` doubles as the
/// free-list link when the node is pooled and as the ready-lane FIFO link
/// while the node waits at the current timestamp.
struct EventNode {
  static constexpr std::size_t kInlineBytes = 112;

  Time t = 0;
  std::uint64_t seq = 0;
  Pid resume = kNoPid;
  void (*run)(EventNode&) = nullptr;   ///< invokes and destroys the callable
  void (*drop)(EventNode&) = nullptr;  ///< destroys it without invoking
  EventNode* next = nullptr;           ///< free-list / ready-lane link
  /// Engine-internal bookkeeping event (sharded-run control op): dispatched
  /// normally but excluded from the events_executed counter, so per-shard
  /// control traffic cannot make event counts depend on the shard count.
  bool no_count = false;
  alignas(std::max_align_t) std::byte storage[kInlineBytes];
};

/// Strict-weak order "a after b" on (t, seq). Used as a `greater`-style
/// comparator: a heap built with it is a min-heap.
struct EventAfter {
  bool operator()(const EventNode* a, const EventNode* b) const {
    if (a->t != b->t) return a->t > b->t;
    return a->seq > b->seq;
  }
};

}  // namespace repmpi::sim
