#include "sim/shard.hpp"

#include <limits>
#include <mutex>
#include <utility>

#include "support/error.hpp"

namespace repmpi::sim {

namespace {
thread_local int t_current_shard = 0;
}  // namespace

int current_shard() { return t_current_shard; }

ShardedEngine::ShardedEngine(int num_shards, Time lookahead)
    : clock_(lookahead),
      barrier_(static_cast<std::ptrdiff_t>(
                   num_shards > 0 ? num_shards : 1),
               BarrierHook{this}) {
  REPMPI_CHECK_MSG(num_shards >= 1, "need at least one shard, got "
                                        << num_shards);
  sims_.reserve(static_cast<std::size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    auto sim = std::make_unique<Simulator>();
    // The in-place delay fast path keys off the *shard's* queue contents —
    // a property of the layout, not the program — so it must be off for
    // shard-count-independent event streams (see simulator.hpp).
    sim->set_inplace_delay(false);
    sims_.push_back(std::move(sim));
  }
}

ShardedEngine::~ShardedEngine() = default;

void ShardedEngine::record_exception(std::exception_ptr e) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (!error_) error_ = std::move(e);
}

void ShardedEngine::on_barrier() noexcept {
  // Runs on exactly one (unspecified) worker while all others are blocked
  // in arrive_and_wait; the barrier phase completion synchronizes with
  // every worker's release, so plain access to all shards is safe here.
  try {
    if (clock_.open() && !abort_.load(std::memory_order_relaxed)) {
      if (boundary_hook_) boundary_hook_(clock_.end());
    }
    if (abort_.load(std::memory_order_relaxed)) {
      stop_ = true;
      return;
    }
    Time global_min = std::numeric_limits<Time>::infinity();
    for (auto& sim : sims_) {
      global_min = std::min(global_min, sim->next_event_time());
    }
    if (!clock_.advance(global_min)) {
      // Drained. Collect the deadlock diagnosis now, before the workers
      // terminate their fibers (termination clears the parked evidence).
      for (std::size_t s = 0; s < sims_.size(); ++s) {
        const std::string stuck = sims_[s]->stuck_processes();
        if (!stuck.empty()) {
          stuck_report_ += " [shard " + std::to_string(s) + "] " + stuck;
        }
      }
      stop_ = true;
    }
  } catch (...) {
    record_exception(std::current_exception());
    stop_ = true;
  }
}

void ShardedEngine::worker(int s) {
  t_current_shard = s;
  Simulator& sim = *sims_[static_cast<std::size_t>(s)];
  for (;;) {
    barrier_.arrive_and_wait();
    if (stop_) break;
    try {
      sim.run_until(clock_.end());
    } catch (...) {
      record_exception(std::current_exception());
      abort_.store(true, std::memory_order_relaxed);
    }
  }
  // Unwind this shard's live fibers on the thread that ran them (fiber
  // stacks and TSan fiber handles are thread-affine). Serialized because a
  // killed fiber's unwind may touch state shared across ranks.
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    try {
      sim.terminate_processes();
    } catch (...) {
      if (!error_) error_ = std::current_exception();
    }
  }
  t_current_shard = 0;
}

void ShardedEngine::run() {
  REPMPI_CHECK_MSG(!ran_, "ShardedEngine::run is one-shot");
  ran_ = true;
  std::vector<std::thread> workers;
  workers.reserve(sims_.size());
  for (int s = 0; s < num_shards(); ++s) {
    workers.emplace_back([this, s] { worker(s); });
  }
  for (auto& w : workers) w.join();
  if (error_) std::rethrow_exception(error_);
  if (!stuck_report_.empty()) {
    throw support::DeadlockError("simulation deadlock:" + stuck_report_);
  }
}

}  // namespace repmpi::sim
