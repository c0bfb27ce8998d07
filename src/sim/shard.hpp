#pragma once

// Sharded simulator engine: one simulation, many threads.
//
// A ShardedEngine owns N ordinary Simulators ("shards"), each driven by its
// own dedicated worker thread with its own event lanes, fiber pool and
// instance-local state — exactly the single-threaded substrate, replicated.
// The shards advance in lockstep through conservative time windows
// (sim/time_sync.hpp): a window [W, W + lookahead) is safe to execute in
// parallel because no cross-shard influence can arrive in less than the
// minimum inter-node network latency. All cross-shard work is deferred to
// the window boundary, where a caller-supplied hook runs *serially* with
// every worker quiescent at the barrier and may freely schedule events on
// any shard (the barrier provides the synchronization).
//
// Determinism: window boundaries are a function of the global pending-event
// set, which is shard-count-independent by induction, so the boundary hook
// fires at identical virtual times at any shard count. The hook's owner
// (simmpi::ShardedMachine) applies deferred operations in a sorted,
// layout-independent order, which together with strict (t, seq) dispatch
// inside each shard makes virtual time, event/message counts and
// determinism fingerprints bit-identical whether a run uses 1 shard or 64.
//
// Error handling: the first exception thrown by any shard (or by the hook)
// aborts the run; every worker terminates its *own* shard's fibers on its
// own thread before exiting, so fiber stacks never unwind cross-thread.
// When all queues drain normally, parked-but-live processes across all
// shards are reported as a single DeadlockError.
//
// Workers install no per-thread state for the fibers they run: the kernel
// backend is process-wide, and the kernel timing those fibers accrue
// (kernels::kernel_totals) stays in the worker threads' totals.

#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time_sync.hpp"

namespace repmpi::sim {

/// Index of the shard whose worker thread is executing, 0 outside a sharded
/// run. Lets shard-aware readers (e.g. the MPI world's per-shard death
/// views) select their slice without plumbing the id through every call.
int current_shard();

class ShardedEngine {
 public:
  /// `lookahead` is the minimum cross-shard (inter-node) latency of the
  /// simulated network; must be positive and finite.
  ShardedEngine(int num_shards, Time lookahead);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  int num_shards() const { return static_cast<int>(sims_.size()); }
  Time lookahead() const { return clock_.lookahead(); }
  Simulator& shard(int s) { return *sims_[static_cast<std::size_t>(s)]; }
  const Simulator& shard(int s) const {
    return *sims_[static_cast<std::size_t>(s)];
  }

  /// Serial window-boundary hook, invoked at the barrier after every window
  /// with all workers quiescent; receives the horizon of the window that
  /// just ended. It may schedule events on any shard; everything it adds
  /// must land at or after that horizon.
  void set_boundary_hook(std::function<void(Time window_end)> hook) {
    boundary_hook_ = std::move(hook);
  }

  /// Drives all shards to completion. Rethrows the first worker/hook
  /// exception; throws DeadlockError when live processes remain parked
  /// across the drained shards. One-shot.
  void run();

  /// Time windows executed (valid after run()).
  std::uint64_t windows() const { return clock_.windows(); }

 private:
  struct BarrierHook {
    ShardedEngine* engine;
    void operator()() noexcept { engine->on_barrier(); }
  };

  void worker(int s);
  void on_barrier() noexcept;
  void record_exception(std::exception_ptr e);

  std::vector<std::unique_ptr<Simulator>> sims_;
  WindowClock clock_;
  std::barrier<BarrierHook> barrier_;
  std::function<void(Time)> boundary_hook_;
  bool stop_ = false;             ///< written only in on_barrier (serial)
  std::atomic<bool> abort_{false};
  bool ran_ = false;
  std::string stuck_report_;      ///< aggregated deadlock diagnosis
  std::mutex error_mu_;           ///< guards error_ and terminate order
  std::exception_ptr error_;
};

}  // namespace repmpi::sim
