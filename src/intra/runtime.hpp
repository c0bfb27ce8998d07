#pragma once

// Intra-parallelization runtime — the paper's primary contribution.
//
// Implements the API of Section III-C (Intra_Section_begin/end,
// Intra_Task_register, Intra_Task_launch) and the replica-side protocol of
// Algorithm 1 on top of the replication layer's replica communicator:
//
//  * section_begin resets the per-section task registry (Alg. 1 lines 9-12);
//  * launch instantiates tasks (lines 17-19);
//  * section_end schedules every task onto an alive lane, executes the local
//    ones, ships their out/inout arguments to the other lanes, and receives
//    the updates for remote ones (lines 20-28);
//  * update transfer is overlapped with computation (Section V-A): receives
//    for remote tasks are pre-posted on entry to section_end and each local
//    task's updates are sent as soon as it completes, with completion
//    collected only at the end;
//  * an update costs one copy at send and one on arrival: each (task, arg)
//    output ships in one payload shared by every destination lane, and an
//    out argument's receive copies it straight into the binding. An inout
//    argument's payload is held until collect_update has taken the
//    pre-image, and freed right after its copy;
//  * the extra-copy discipline for inout arguments (Fig. 2 / lines 30-31,
//    37-38) makes task re-execution after a partial update correct;
//  * on a replica failure, tasks whose updates were lost are re-executed
//    locally by each lane that misses them. (Algorithm 1 re-schedules them
//    through the scheduler instead; with the evaluated replication degree 2
//    the sole survivor is the only possible target, so the two formulations
//    coincide. For degree > 2 local re-execution avoids the inconsistent
//    "done" views that a partial update leaves across lanes, at the price of
//    possibly redundant re-execution — the option the paper itself notes:
//    "the replicas that did not receive the update can either execute the
//    task locally or get the update from the replicas that already got it".)
//
// Modes: kShared is intra-parallelization; kAllLocal executes every task on
// every replica — which is exactly classic state-machine replication
// (SDR-MPI) when degree > 1, and the native baseline when degree == 1. The
// same application code therefore produces all three bars of the paper's
// plots.

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "fault/failure.hpp"
#include "intra/task.hpp"
#include "replication/logical_comm.hpp"
#include "support/compute_cache.hpp"

namespace repmpi::intra {

/// Cumulative runtime statistics (virtual seconds), used to reproduce the
/// Fig. 5a breakdown (time in sections, residual update-transfer time).
struct IntraStats {
  double section_time = 0;      ///< total time inside sections
  double update_tail_time = 0;  ///< time finishing update transfers after
                                ///< all local tasks were done (dashed area
                                ///< in Fig. 5a)
  double inout_copy_time = 0;   ///< time spent on the Fig.-2 extra copies
  std::int64_t sections = 0;
  std::int64_t tasks_executed = 0;
  std::int64_t tasks_received = 0;
  std::int64_t tasks_reexecuted = 0;  ///< failure-path local re-executions
  std::int64_t update_bytes_sent = 0;
  std::int64_t sdc_injected = 0;   ///< silent corruptions injected (faults)
  std::int64_t sdc_detected = 0;   ///< divergences caught (kDuplicateVerify)
};

class Runtime {
 public:
  enum class Mode {
    kShared,    ///< intra-parallelization: tasks split across replicas
    kAllLocal,  ///< classic replication / native: every replica runs all tasks
    /// Classic replication plus output comparison between replicas at every
    /// section end — the SDC-detecting configuration of refs [20],[21] that
    /// the paper contrasts with in Section II. Intra-parallelization cannot
    /// detect SDC (it deliberately avoids duplicate computation); this mode
    /// quantifies what that coverage costs.
    kDuplicateVerify,
  };

  struct Config {
    Mode mode = Mode::kShared;
    SchedulePolicy policy = SchedulePolicy::kStaticBlock;
    /// Overlap update transfer with computation (Section V-A optimization).
    /// Off: updates are sent only after all local tasks finish and receives
    /// are posted late — the A2 ablation.
    bool overlap = true;
    /// Verify replica consistency at section exit (tests only: adds a
    /// checksum exchange between replicas).
    bool verify_consistency = false;
    fault::FaultPlan* faults = nullptr;
    /// Replica-compute sharing handle (may be null or inert). In kAllLocal
    /// mode — classic replication, where every replica executes every task —
    /// task bodies are deduped through it on the host: computed once per
    /// logical rank, outputs shared, full simulated cost still charged per
    /// replica. Runs with a fault plan get an inert handle (crash/SDC
    /// injection counts per task execution, so executions must be real).
    support::ComputeClient* share = nullptr;
  };

  Runtime(rep::LogicalComm& comm, Config config);

  /// Paper: Intra_Section_begin(). Must not be nested.
  void section_begin();

  /// Paper: Intra_Task_register(f, tags...). Valid inside an open section;
  /// returns the task-type id used by launch(). At most kMaxArgsPerTask
  /// arguments; the specs are copied.
  int register_task(TaskFn fn, std::span<const ArgSpec> args);
  int register_task(TaskFn fn, std::initializer_list<ArgSpec> args) {
    return register_task(std::move(fn),
                         std::span<const ArgSpec>(args.begin(), args.size()));
  }

  /// Paper: Intra_Task_launch(id, vars...). Binds memory to a registered
  /// task type and queues the task; the bindings are copied into the task
  /// record. The body later receives a TaskArgs view of that record, valid
  /// only during the body call. `weight` is an optional relative cost
  /// estimate used by SchedulePolicy::kWeighted (ignored otherwise).
  /// The tasks of one section must be independent: none may read a binding
  /// that another writes, since a remote task's out update lands on arrival,
  /// while this lane's own tasks may still be running.
  void launch(int task_type, std::span<const Binding> bindings,
              double weight = 1.0);
  void launch(int task_type, std::initializer_list<Binding> bindings,
              double weight = 1.0) {
    launch(task_type,
           std::span<const Binding>(bindings.begin(), bindings.size()),
           weight);
  }

  /// Paper: Intra_Section_end(). Runs the protocol of Algorithm 1; on
  /// return, all alive replicas of this logical rank hold identical values
  /// in every out/inout binding.
  void section_end();

  bool in_section() const { return in_section_; }
  const IntraStats& stats() const { return stats_; }
  rep::LogicalComm& comm() { return comm_; }
  Mode mode() const { return config_.mode; }

 private:
  struct TaskDef {
    TaskFn fn;
    std::array<ArgSpec, kMaxArgsPerTask> specs{};
    std::size_t num_args = 0;
    std::span<const ArgSpec> args() const { return {specs.data(), num_args}; }
  };

  /// One launched task. Bindings and update receives are held inline, so a
  /// section allocates nothing per task once tasks_ has grown.
  struct Task {
    int def = -1;
    double weight = 1.0;
    std::array<std::span<std::byte>, kMaxArgsPerTask> bindings{};
    /// One per non-in arg (remote tasks), in argument order.
    std::array<mpi::Request, kMaxArgsPerTask> recv_reqs{};
    /// Pre-images of inout arguments (Fig. 2): filled lazily on first
    /// receive; restored before any (re-)execution. Sized only under a
    /// fault plan, the only case in which a pre-image is read back.
    std::vector<support::Buffer> inout_copies;
    int lane = -1;  ///< assigned lane
    bool done = false;
    bool inout_copied = false;  ///< pre-image charge taken (Alg.1 l.37)
  };

  int assigned_lane(std::size_t task_index, std::size_t num_tasks,
                    const std::vector<int>& lanes) const;
  /// Fills Task::lane for every task (handles the kWeighted LPT policy,
  /// which needs a global view of the weights).
  void assign_lanes(const std::vector<int>& lanes);
  /// kDuplicateVerify: exchange output checksums between replicas and count
  /// divergences (SDC detection).
  void verify_outputs_for_sdc(const std::vector<int>& lanes);
  void execute_task(Task& t, bool is_reexecution);
  /// kAllLocal fast path: runs the task through the replica-compute cache —
  /// one real execution per logical rank, siblings restore the outputs and
  /// charge the same simulated cost (stats count it as executed either way).
  void execute_task_shared(Task& t);
  void send_updates(const Task& t, const std::vector<int>& lanes);
  void post_update_recvs(Task& t, std::size_t task_index);
  /// Returns true when every non-in argument arrived; false on lane failure.
  bool collect_update(Task& t);
  void make_inout_copies(Task& t);
  void restore_inout_copies(Task& t);
  int update_tag(std::size_t task_index, std::size_t arg_index) const;
  void maybe_crash(fault::CrashSite site, int detail = -1);
  /// Section-exit output check shared by verify_consistency and the SDC
  /// check: an FNV hash over every non-in binding, sent to each other lane
  /// in `lanes` on the update tag of argument slot `arg_slot` before any is
  /// received (a lane that fails meanwhile is skipped). `charge` models the
  /// hash pass as a read of every hashed byte. Returns how many lanes
  /// disagree and puts the first of them in *first_diff.
  int exchange_output_hash(const std::vector<int>& lanes,
                           std::size_t arg_slot, bool charge,
                           int* first_diff);
  void verify_consistency();

  rep::LogicalComm& comm_;
  Config config_;
  bool in_section_ = false;
  std::vector<TaskDef> defs_;
  std::vector<Task> tasks_;
  std::vector<int> lanes_;  ///< alive lanes at section_end (reused)
  std::uint64_t section_seq_ = 0;
  IntraStats stats_;
};

/// RAII section guard.
class Section {
 public:
  explicit Section(Runtime& rt) : rt_(rt) { rt_.section_begin(); }
  ~Section() noexcept(false) {
    // Propagating from a destructor is deliberate here: section_end runs a
    // protocol that may legitimately throw (e.g., LogicalProcessLost), and
    // callers treat Section as a scoped statement, not a resource.
    if (!std::uncaught_exceptions()) rt_.section_end();
  }
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;

 private:
  Runtime& rt_;
};

}  // namespace repmpi::intra
