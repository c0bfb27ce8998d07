#pragma once

// Process-isolated work execution for sweep grids: a queue of scenario
// descriptors fanned across fork/exec'd worker processes, each attempt run
// under a wall-clock deadline with kill-on-timeout and bounded retry with
// exponential, jittered backoff (see backoff_sec below).
//
// Why processes, not threads: a sweep cell that SIGSEGVs, OOMs, or hangs
// must cost exactly one cell, not the run. The supervisor owns each child's
// stdout through a pipe (the metrics blob), classifies every termination
// into a distinct failure class (crash / timeout / nonzero exit / corrupt
// output), and keeps the rest of the queue flowing — a cell that exhausts
// its retry budget is reported failed while the sweep degrades gracefully
// and completes everything else.
//
// The supervisor is single-threaded: one poll(2) loop drives spawning,
// output draining, deadline enforcement, reaping, and the backoff timers.
// Results are deterministic in content (the workers are deterministic
// simulations); only completion order depends on the host.
//
// run(items) blocks until every item is terminal and returns the results
// in item order; cfg.on_result sees each one as it completes, which is
// where the sweep tool makes it durable.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "support/result_log.hpp"

namespace repmpi::support {

/// One unit of work: the scenario key and the command to exec for it.
struct WorkItem {
  std::string key;
  std::vector<std::string> argv;  ///< argv[0] is the program path
  /// KEY=VALUE entries for the child; each replaces an inherited entry of
  /// the same KEY, as does the supervisor's REPMPI_SWEEP_ATTEMPT.
  std::vector<std::string> env;
  double timeout_sec = 60.0;      ///< per-attempt wall-clock deadline
};

/// Terminal outcome of one item (after retries).
struct WorkResult {
  std::string key;
  CellStatus status = CellStatus::kOk;
  int attempts = 0;    ///< attempts consumed (1 = first try succeeded)
  int code = 0;        ///< exit status (kExit), else the signal number
  std::string output;  ///< captured stdout of the final attempt
  double wall_s = 0;   ///< host wall of the final attempt
};

struct SupervisorConfig {
  int jobs = 1;          ///< concurrent worker processes
  int max_attempts = 3;  ///< total tries per item before it is failed
  /// Retry n (n >= 1) waits base * 2^(n-1) seconds, capped.
  double backoff_base_sec = 0.25;
  double backoff_cap_sec = 5.0;
  /// Validates a worker's stdout after a clean exit; returning false
  /// classifies the attempt kCorrupt. Null accepts everything.
  std::function<bool(const WorkItem&, const std::string& output)> validate;
  /// Called once per item when it reaches a terminal status, in completion
  /// order, from the supervisor's thread. The crash-safe hook: the sweep
  /// tool appends to its ResultLog here.
  std::function<void(const WorkItem&, const WorkResult&)> on_result;
  std::ostream* log = nullptr;  ///< progress/diagnostic lines (null = quiet)
};

class Supervisor {
 public:
  explicit Supervisor(SupervisorConfig cfg);
  /// SIGKILLs and reaps any children still running — only possible when
  /// run() exits by an exception (a throwing callback, a failed fork).
  ~Supervisor();
  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Runs every item to a terminal status. Returns results in item order.
  std::vector<WorkResult> run(const std::vector<WorkItem>& items);

  /// Backoff delay before retry `retry` (1-based), per the config policy —
  /// the exact exponential, ignoring jitter.
  static double backoff_sec(const SupervisorConfig& cfg, int retry);

  /// The delay a retry actually waits: the exact exponential scaled by a
  /// factor in [0.5, 1.0) derived from (item key, retry number). A pure
  /// function of (cfg, retry, key), so the schedule is reproducible, but
  /// simultaneous cell failures no longer retry in lockstep.
  static double backoff_sec(const SupervisorConfig& cfg, int retry,
                            const std::string& key);

 private:
  using Clock = std::chrono::steady_clock;

  struct Child {
    pid_t pid = -1;
    std::size_t index = 0;  ///< the item's position in run()'s batch
    int attempt = 1;
    int fd = -1;     ///< read end of the stdout pipe; -1 after EOF
    int pidfd = -1;  ///< readable once the child exits (polled with fd)
    std::string output;
    Clock::time_point start;
    Clock::time_point deadline;
    bool timed_out = false;
    bool overflowed = false;
  };
  struct Pending {
    std::size_t index = 0;
    int attempt = 1;
    Clock::time_point ready;
  };

  /// One iteration of the engine: spawn ready attempts, wait for output /
  /// deadlines / retry timers for at most max_wait_ms, drain pipes, enforce
  /// deadlines, reap.
  void step(int max_wait_ms);
  void finish_attempt(Child& c, CellStatus status, int code);
  void reap(Child& c, int wait_status);

  SupervisorConfig cfg_;
  /// The batch run() is working on, and its item-ordered result slots.
  const std::vector<WorkItem>* items_ = nullptr;
  std::vector<WorkResult>* results_ = nullptr;
  /// Every non-terminal item is in exactly one of these two.
  std::deque<Pending> pending_;
  std::vector<Child> running_;
};

}  // namespace repmpi::support
