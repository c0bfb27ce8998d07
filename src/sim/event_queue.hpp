#pragma once

// Tiered timed-event queue for the DES scheduler.
//
// A discrete-event simulation of a message-passing machine has a sharply
// bimodal timestamp distribution: the bulk of inserts are message deliveries
// a network latency (microseconds) ahead of the clock, with a thin tail of
// compute-delay resumes milliseconds-to-seconds out. A binary heap charges
// every one of them O(log n) pointer-chasing comparisons both on push and on
// pop. This queue is a two-level ladder/calendar structure tuned for that
// locality:
//
//   * near tier — a window of kBuckets fixed-width buckets covering
//     [base, base + kBuckets*width). An insert inside the window is an O(1)
//     vector append; a bucket is sorted once, when it becomes the active
//     (currently draining) bucket, so the sort cost amortizes to O(log b)
//     comparisons per event with b = bucket occupancy (typically a handful).
//     Pops come off the sorted active lane in O(1).
//   * far tier — a conventional binary min-heap for events beyond the
//     window (compute-scale delays). When the near window drains, the queue
//     re-anchors: base snaps to the earliest far event and everything inside
//     the new window migrates into buckets. An event migrates at most once,
//     so the worst case stays heap-like while the common case is O(1).
//
// The bucket width self-tunes: a sampled, log-domain (geometric-mean) EWMA
// of insert lead times (t - now) tracks the dominant comm-latency scale
// without being dragged upward by the rare large compute delays, and each
// re-anchor adopts the current estimate.
//
// Ordering contract (load-bearing for determinism): pops follow strict
// (t, seq) order — virtual time first, globally monotonic sequence number as
// the tie-break — which reproduces the schedule-order FIFO semantics of the
// binary heap it replaced bit for bit. Same-time events scheduled *at* the
// current instant never reach this queue at all: the Simulator keeps them in
// a separate FIFO ready lane (see simulator.hpp) and merges the two lanes by
// (t, seq) when dispatching.
//
// Not thread-safe; instance-local like everything else in the substrate.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace repmpi::sim {

/// Virtual time in seconds (mirror of the alias in simulator.hpp).
using Time = double;

/// Simulated process id (mirror of the alias in simulator.hpp).
using Pid = int;

inline constexpr Pid kNoPidValue = -1;

/// Pooled event: either a process resume (resume != kNoPidValue) or a
/// callback stored in `storage` (inline if it fits, else a heap-boxed
/// pointer installed by Simulator::attach_callable). `next` doubles as the
/// free-list link when the node is pooled and as the ready-lane FIFO link
/// while the node waits at the current timestamp.
struct EventNode {
  static constexpr std::size_t kInlineBytes = 112;

  Time t = 0;
  std::uint64_t seq = 0;
  Pid resume = kNoPidValue;
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
/// comparator: a heap built with it is a min-heap, and a vector sorted with
/// it is descending, so the minimum element sits at the back.
struct EventAfter {
  bool operator()(const EventNode* a, const EventNode* b) const {
    if (a->t != b->t) return a->t > b->t;
    return a->seq > b->seq;
  }
};

class LadderQueue {
 public:
  struct Stats {
    std::uint64_t near_inserts = 0;  ///< O(1) bucket / active-lane inserts
    std::uint64_t far_inserts = 0;   ///< overflow min-heap inserts
    std::uint64_t reanchors = 0;     ///< window migrations from the far tier
  };

  LadderQueue() : buckets_(kBuckets) {}

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const Stats& stats() const { return stats_; }

  /// Inserts `n` (fields t/seq already set). `now` is the caller's clock,
  /// used only to sample insert lead times for the width estimator.
  void push(EventNode* n, Time now) {
    ++size_;
    if (((sample_tick_++) & 15u) == 0) {
      const double lead = n->t - now;
      if (lead > 0) lg_lead_ += (std::log2(lead) - lg_lead_) * 0.125;
    }
    // The active lane absorbs anything below its range end: it is fully
    // sorted, so an out-of-band insert (including FP boundary jitter) is
    // always ordering-safe there.
    if (n->t < active_end_) {
      insert_active(n);
      ++stats_.near_inserts;
      return;
    }
    const double off = (n->t - base_) * inv_width_;
    if (off < static_cast<double>(kBuckets)) {
      std::size_t idx = static_cast<std::size_t>(off);
      if (idx >= kBuckets) idx = kBuckets - 1;  // FP edge at the horizon
      if (idx < cur_) {
        // Rounding placed it in an already-consumed bucket; the sorted
        // active lane is the safe home for stragglers.
        insert_active(n);
      } else {
        buckets_[idx].push_back(n);
        ++near_count_;
      }
      ++stats_.near_inserts;
    } else {
      far_.push_back(n);
      std::push_heap(far_.begin(), far_.end(), EventAfter{});
      ++stats_.far_inserts;
    }
  }

  /// Minimum (t, seq) event, or nullptr when empty. May activate (sort) the
  /// next bucket or re-anchor the window; amortized O(1).
  EventNode* peek() {
    if (active_.empty() && !refill()) return nullptr;
    return active_.back();
  }

  EventNode* pop() {
    EventNode* n = peek();
    if (n != nullptr) {
      active_.pop_back();
      --size_;
    }
    return n;
  }

  /// Hands every queued node to `f` in unspecified order and empties the
  /// queue (teardown path: callables still own resources). Also resets the
  /// bucket epoch: a drained queue must behave like a freshly constructed
  /// one. Leaving `base_`/`cur_`/`active_end_` pointing at the old window
  /// would mis-home the next epoch's pushes — a stale large `active_end_`
  /// absorbs everything into the sorted lane (O(n) inserts), and a push
  /// below a stale `base_` computes a *negative* bucket offset whose
  /// unsigned conversion is undefined. Only the cumulative `stats_` survive.
  template <typename F>
  void drain(F&& f) {
    for (EventNode* n : active_) f(n);
    active_.clear();
    for (auto& b : buckets_) {
      for (EventNode* n : b) f(n);
      b.clear();
    }
    for (EventNode* n : far_) f(n);
    far_.clear();
    near_count_ = 0;
    size_ = 0;
    active_end_ = 0.0;
    base_ = 0.0;
    width_ = kInitWidth;
    inv_width_ = 1.0 / kInitWidth;
    cur_ = 0;
    lg_lead_ = kInitLgLead;
    sample_tick_ = 0;
  }

 private:
  static constexpr std::size_t kBuckets = 512;
  static constexpr double kMinWidth = 1e-12;
  static constexpr double kMaxWidth = 1e3;
  static constexpr double kInitWidth = 1e-6;
  static constexpr double kInitLgLead = -20.0;  ///< log2 EWMA seed (~1 us)

  void insert_active(EventNode* n) {
    // Descending (t, seq): find the first strictly-smaller element and slot
    // in before it. New arrivals are typically near the clock, i.e. near the
    // back — a short memmove.
    const auto it =
        std::upper_bound(active_.begin(), active_.end(), n, EventAfter{});
    active_.insert(it, n);
  }

  /// Makes the next non-empty bucket the active lane; re-anchors from the
  /// far tier when the window is spent. Returns false when no events remain.
  bool refill() {
    for (;;) {
      if (near_count_ > 0) {
        while (buckets_[cur_].empty()) ++cur_;
        active_.swap(buckets_[cur_]);
        near_count_ -= active_.size();
        std::sort(active_.begin(), active_.end(), EventAfter{});
        ++cur_;
        active_end_ = base_ + static_cast<double>(cur_) * width_;
        return true;
      }
      if (far_.empty()) return false;
      reanchor();
    }
  }

  void reanchor() {
    ++stats_.reanchors;
    base_ = far_.front()->t;
    // A quarter of the geometric-mean lead keeps the typical insert a few
    // buckets ahead of the drain point (O(1) append) instead of inside the
    // sorted active lane; narrower multipliers start paying in re-anchors
    // on bimodal mixes (perfbench's sim.event_ns probe tracks the cost).
    width_ = std::clamp(std::exp2(lg_lead_) * 0.25, kMinWidth, kMaxWidth);
    // At very large timestamps the whole window can round away in double
    // (base_ + kBuckets*width_ == base_): widen until the horizon strictly
    // advances. The do-while below still migrates the minimum event even if
    // it cannot (e.g. base_ == +inf), so progress is unconditional.
    Time horizon = base_ + static_cast<double>(kBuckets) * width_;
    while (horizon <= base_ && width_ < kMaxWidth) {
      width_ *= 2;
      horizon = base_ + static_cast<double>(kBuckets) * width_;
    }
    inv_width_ = 1.0 / width_;
    cur_ = 0;
    active_end_ = base_;
    do {
      std::pop_heap(far_.begin(), far_.end(), EventAfter{});
      EventNode* n = far_.back();
      far_.pop_back();
      std::size_t idx = static_cast<std::size_t>((n->t - base_) * inv_width_);
      if (idx >= kBuckets) idx = kBuckets - 1;
      buckets_[idx].push_back(n);
      ++near_count_;
    } while (!far_.empty() && far_.front()->t < horizon);
  }

  std::vector<EventNode*> active_;  ///< sorted descending; back() is the min
  Time active_end_ = 0.0;           ///< active lane absorbs t < active_end_
  Time base_ = 0.0;                 ///< window origin of the current epoch
  double width_ = kInitWidth;       ///< bucket width (comm-latency guess)
  double inv_width_ = 1.0 / kInitWidth;
  std::size_t cur_ = 0;             ///< next bucket index to activate
  std::size_t near_count_ = 0;      ///< events parked in buckets_
  std::vector<std::vector<EventNode*>> buckets_;
  std::vector<EventNode*> far_;     ///< min-heap by (t, seq)
  double lg_lead_ = kInitLgLead;    ///< log2 EWMA of insert lead
  std::uint32_t sample_tick_ = 0;
  std::size_t size_ = 0;
  Stats stats_;
};

}  // namespace repmpi::sim
