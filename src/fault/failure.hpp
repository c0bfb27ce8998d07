#pragma once

// Fault injection: declarative crash plans evaluated at instrumentation
// points inside the runtimes.
//
// The paper distinguishes crashes (a) outside intra-parallel sections,
// (b) inside a section before any update is sent, and (c) mid-update, where
// some replicas end up with a *partial* update (Fig. 2). Crash points below
// name exactly those instrumentation sites; the intra runtime and the apps
// call FaultPlan::maybe_crash at each site with the current counters, and
// the plan decides whether this physical process dies there.

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "simmpi/world.hpp"

namespace repmpi::fault {

/// Instrumentation sites.
enum class CrashSite {
  kOutsideSection,    ///< between sections (app main loop marker)
  kSectionEntry,      ///< right after Intra_Section_begin
  kBeforeTaskExec,    ///< about to execute the n-th local task
  kAfterTaskExec,     ///< task computed, before any update send
  kBetweenArgSends,   ///< some of a task's update args sent, not all (Fig. 2)
  kSectionExit,       ///< right before Intra_Section_end returns
};

const char* to_string(CrashSite site);

/// One planned crash: fires the n-th time the given site is reached by the
/// given world rank (counts are per (rank, site)).
struct CrashRule {
  int world_rank = -1;
  CrashSite site = CrashSite::kOutsideSection;
  int nth = 1;       ///< 1-based occurrence count at that site
  int detail = -1;   ///< site-specific filter: task index for task sites,
                     ///< arg index for kBetweenArgSends; -1 = any
};

/// One planned silent data corruption: the nth task execution on the given
/// world rank has a byte of its output flipped (models the SDC faults the
/// paper's Section II discusses — detectable by duplicate-execution
/// replication, invisible to intra-parallelization). When `at >= 0` the rule
/// is time-triggered instead: it fires on the first task execution at or
/// after virtual time `at` (how the bursty NHPP generator plants SDC events
/// without knowing task indices up front).
struct CorruptionRule {
  int world_rank = -1;
  int nth = 1;
  sim::Time at = -1.0;  ///< >= 0: fire at the first execution at/after `at`
};

/// One planned timed crash: the rank dies at the given virtual time, whatever
/// it is doing, independent of the instrumentation sites above. Several rules
/// with one time model a correlated failure (both replicas of a logical rank
/// at one instant); the runner schedules them as internal simulator events
/// before launch.
struct TimedCrash {
  int world_rank = -1;
  sim::Time at = 0.0;
};

/// A crash plan shared by all processes of one simulation run.
class FaultPlan {
 public:
  FaultPlan() = default;

  // Movable during the configuration phase only (builders return plans by
  // value); the occurrence lock is per-object and starts fresh. Never move
  // a plan a running simulation holds a pointer to.
  FaultPlan(FaultPlan&& other) noexcept
      : rules_(std::move(other.rules_)),
        counters_(std::move(other.counters_)),
        corruptions_(std::move(other.corruptions_)),
        corruption_done_(std::move(other.corruption_done_)),
        timed_(std::move(other.timed_)),
        exec_counts_(std::move(other.exec_counts_)),
        fired_(other.fired_),
        corruptions_fired_(other.corruptions_fired_) {}
  FaultPlan& operator=(FaultPlan&& other) noexcept {
    rules_ = std::move(other.rules_);
    counters_ = std::move(other.counters_);
    corruptions_ = std::move(other.corruptions_);
    corruption_done_ = std::move(other.corruption_done_);
    timed_ = std::move(other.timed_);
    exec_counts_ = std::move(other.exec_counts_);
    fired_ = other.fired_;
    corruptions_fired_ = other.corruptions_fired_;
    return *this;
  }

  void add(CrashRule rule) { rules_.push_back(rule); }
  void add_corruption(CorruptionRule rule) {
    corruptions_.push_back(rule);
    corruption_done_.push_back(0);
  }
  void add_timed(int world_rank, sim::Time at) {
    timed_.push_back(TimedCrash{world_rank, at});
  }

  const std::vector<TimedCrash>& timed_crashes() const { return timed_; }

  bool empty() const {
    return rules_.empty() && corruptions_.empty() && timed_.empty();
  }

  /// Rejects rules that could never fire (negative `nth`, out-of-range
  /// `world_rank`, negative crash times) with a UsageError naming the rule.
  /// The runner calls this once the world size is known, before launch.
  void validate(int num_ranks) const;

  /// Called by instrumented code in process context. If a rule fires, the
  /// calling process is crashed through World::crash and this call does not
  /// return (ProcessKilled propagates).
  void maybe_crash(mpi::Proc& proc, CrashSite site, int detail = -1);

  /// Called by the intra runtime after each task execution; true when this
  /// execution's output should be silently corrupted.
  bool should_corrupt(mpi::Proc& proc);

  /// Called by the runner's timed-crash control event after it kills a
  /// victim, so fired() counts timed deaths exactly like site-rule deaths.
  void note_timed_fired() {
    std::lock_guard<std::mutex> lock(mu_);
    ++fired_;
  }

  /// Number of rules that have fired so far.
  int fired() const { return fired_; }
  int corruptions_fired() const { return corruptions_fired_; }

 private:
  struct Counter {
    int world_rank;
    CrashSite site;
    int detail;
    int count;
  };

  std::vector<CrashRule> rules_;
  std::vector<Counter> counters_;
  std::vector<CorruptionRule> corruptions_;
  std::vector<char> corruption_done_;  // per-rule one-shot flags
  std::vector<TimedCrash> timed_;
  std::vector<std::pair<int, int>> exec_counts_;  // (world_rank, count)
  int fired_ = 0;
  int corruptions_fired_ = 0;
  /// One plan is shared by every rank of a run; under the sharded engine
  /// those ranks call in from different worker threads. Guards the mutable
  /// occurrence state above (rules_/corruptions_ are fixed before launch;
  /// the fired counts are read only after the run joins).
  std::mutex mu_;
};

}  // namespace repmpi::fault
