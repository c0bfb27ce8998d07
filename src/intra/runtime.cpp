#include "intra/runtime.hpp"

#include <algorithm>
#include <cstring>

#include "support/log.hpp"

namespace repmpi::intra {

namespace {
constexpr std::size_t kMaxTasksPerSection = 1024;

/// FNV-1a over a byte span — used by the consistency verifier.
std::uint64_t checksum(std::span<const std::byte> bytes, std::uint64_t h) {
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

Runtime::Runtime(rep::LogicalComm& comm, Config config)
    : comm_(comm), config_(config) {}

void Runtime::section_begin() {
  REPMPI_CHECK_MSG(!in_section_, "intra-parallel sections cannot nest");
  in_section_ = true;
  comm_.set_in_section(true);
  defs_.clear();
  tasks_.clear();
  ++section_seq_;
  maybe_crash(fault::CrashSite::kSectionEntry);
}

int Runtime::register_task(TaskFn fn, std::span<const ArgSpec> args) {
  REPMPI_CHECK_MSG(in_section_, "register_task outside a section");
  REPMPI_CHECK(args.size() <= kMaxArgsPerTask);
  TaskDef& def = defs_.emplace_back(TaskDef{std::move(fn)});
  std::copy(args.begin(), args.end(), def.specs.begin());
  def.num_args = args.size();
  return static_cast<int>(defs_.size()) - 1;
}

void Runtime::launch(int task_type, std::span<const Binding> bindings,
                     double weight) {
  REPMPI_CHECK_MSG(in_section_, "launch outside a section");
  REPMPI_CHECK_MSG(task_type >= 0 &&
                       static_cast<std::size_t>(task_type) < defs_.size(),
                   "unknown task type " << task_type);
  REPMPI_CHECK(tasks_.size() < kMaxTasksPerSection);
  const TaskDef& def = defs_[static_cast<std::size_t>(task_type)];
  REPMPI_CHECK_MSG(bindings.size() == def.num_args,
                   "task type " << task_type << " expects " << def.num_args
                                << " args, got " << bindings.size());
  Task& t = tasks_.emplace_back();
  t.def = task_type;
  t.weight = weight;
  for (std::size_t a = 0; a < bindings.size(); ++a) {
    t.bindings[a] = {static_cast<std::byte*>(bindings[a].ptr),
                     bindings[a].bytes};
  }
}

int Runtime::update_tag(std::size_t task_index, std::size_t arg_index) const {
  // Unique per (section, task, arg) within a generous window so stale
  // updates from failure handling in past sections can never match.
  return static_cast<int>(
      (section_seq_ % (1u << 17)) * (kMaxTasksPerSection * kMaxArgsPerTask) +
      task_index * kMaxArgsPerTask + arg_index);
}

int Runtime::assigned_lane(std::size_t task_index, std::size_t num_tasks,
                           const std::vector<int>& lanes) const {
  const std::size_t num_lanes = lanes.size();
  std::size_t pos = 0;
  switch (config_.policy) {
    case SchedulePolicy::kStaticBlock:
      // Paper V-A: first N/R tasks on replica 0, next N/R on replica 1, ...
      pos = task_index * num_lanes / num_tasks;
      break;
    case SchedulePolicy::kRoundRobin:
    case SchedulePolicy::kWeighted:  // handled by assign_lanes
      pos = task_index % num_lanes;
      break;
  }
  return lanes[pos];
}

void Runtime::assign_lanes(const std::vector<int>& lanes) {
  if (config_.policy != SchedulePolicy::kWeighted) {
    for (std::size_t i = 0; i < tasks_.size(); ++i)
      tasks_[i].lane = assigned_lane(i, tasks_.size(), lanes);
    return;
  }
  // LPT greedy: heaviest first, to the least-loaded lane. Ties break on
  // task index and lane order, so every replica computes the same map.
  std::vector<std::size_t> order(tasks_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (tasks_[a].weight != tasks_[b].weight)
      return tasks_[a].weight > tasks_[b].weight;
    return a < b;
  });
  std::vector<double> load(lanes.size(), 0.0);
  for (const std::size_t ti : order) {
    std::size_t best = 0;
    for (std::size_t k = 1; k < load.size(); ++k) {
      if (load[k] < load[best]) best = k;
    }
    tasks_[ti].lane = lanes[best];
    load[best] += tasks_[ti].weight;
  }
}

void Runtime::make_inout_copies(Task& t) {
  if (t.inout_copied) return;  // copy already made (Alg.1 l.37)
  t.inout_copied = true;
  // The pre-image is only ever read back on the failure path
  // (restore_inout_copies before a re-execution). Without a fault plan no
  // lane can die, so the host-side byte copy is dead work — elide it, but
  // keep the virtual-time charge: the modeled protocol always pays for the
  // copy regardless of whether this process materializes the bytes.
  const bool rollback_possible =
      config_.faults != nullptr && !config_.faults->empty();
  const TaskDef& def = defs_[static_cast<std::size_t>(t.def)];
  if (rollback_possible) t.inout_copies.resize(def.num_args);
  for (std::size_t a = 0; a < def.num_args; ++a) {
    if (def.specs[a].tag != ArgTag::kInOut) continue;
    const auto src = t.bindings[a];
    if (rollback_possible) t.inout_copies[a].assign(src.begin(), src.end());
    const double dt = comm_.proc().world().model().memcpy_time(src.size());
    comm_.proc().elapse(dt);
    stats_.inout_copy_time += dt;
  }
}

void Runtime::restore_inout_copies(Task& t) {
  const TaskDef& def = defs_[static_cast<std::size_t>(t.def)];
  for (std::size_t a = 0; a < def.num_args; ++a) {
    if (def.specs[a].tag != ArgTag::kInOut) continue;
    if (a >= t.inout_copies.size() || t.inout_copies[a].empty()) continue;
    std::memcpy(t.bindings[a].data(), t.inout_copies[a].data(),
                t.bindings[a].size());
    comm_.proc().elapse(
        comm_.proc().world().model().memcpy_time(t.bindings[a].size()));
  }
}

void Runtime::execute_task(Task& t, bool is_reexecution) {
  // Algorithm 1, lines 30-31: re-executions must start from the pre-update
  // value of every inout argument (Fig. 2's true-dependence hazard).
  if (is_reexecution) restore_inout_copies(t);
  const TaskDef& def = defs_[static_cast<std::size_t>(t.def)];
  TaskArgs args(def.args(), {t.bindings.data(), def.num_args});
  const net::ComputeCost cost = def.fn(args);
  comm_.proc().compute(cost);
  ++stats_.tasks_executed;
  if (is_reexecution) ++stats_.tasks_reexecuted;

  // Silent-data-corruption injection (models a bit flip escaping hardware
  // detection): flip a bit in the first writable output byte.
  if (config_.faults && config_.faults->should_corrupt(comm_.proc())) {
    for (std::size_t a = 0; a < def.num_args; ++a) {
      if (def.specs[a].tag == ArgTag::kIn || t.bindings[a].empty()) continue;
      t.bindings[a][0] ^= std::byte{0x10};
      ++stats_.sdc_injected;
      break;
    }
  }
}

void Runtime::execute_task_shared(Task& t) {
  const TaskDef& def = defs_[static_cast<std::size_t>(t.def)];
  // Outputs are exactly the non-`in` bindings — the same byte ranges the
  // kShared protocol would ship between replicas.
  std::span<std::byte> outs[kMaxArgsPerTask];
  std::size_t n = 0;
  for (std::size_t a = 0; a < def.num_args; ++a) {
    if (def.specs[a].tag != ArgTag::kIn) outs[n++] = t.bindings[a];
  }
  const net::ComputeCost cost = config_.share->shared(
      "intra.alllocal.task", std::span<const std::span<std::byte>>(outs, n),
      [&]() -> net::ComputeCost {
        TaskArgs args(def.args(), {t.bindings.data(), def.num_args});
        return def.fn(args);
      });
  comm_.proc().compute(cost);
  ++stats_.tasks_executed;
}

void Runtime::send_updates(const Task& t, const std::vector<int>& lanes) {
  const TaskDef& def = defs_[static_cast<std::size_t>(t.def)];
  const std::size_t ti = static_cast<std::size_t>(&t - tasks_.data());
  mpi::Comm& rc = comm_.replica_comm();
  for (std::size_t a = 0; a < def.num_args; ++a) {
    if (def.specs[a].tag == ArgTag::kIn) continue;
    maybe_crash(fault::CrashSite::kBetweenArgSends, static_cast<int>(a));
    for (int lane : lanes) {
      if (lane == comm_.lane()) continue;
      rc.send(lane, update_tag(ti, a), t.bindings[a]);
      stats_.update_bytes_sent +=
          static_cast<std::int64_t>(t.bindings[a].size());
    }
  }
}

void Runtime::post_update_recvs(Task& t, std::size_t task_index) {
  const TaskDef& def = defs_[static_cast<std::size_t>(t.def)];
  mpi::Comm& rc = comm_.replica_comm();
  std::size_t r = 0;
  for (std::size_t a = 0; a < def.num_args; ++a) {
    if (def.specs[a].tag == ArgTag::kIn) continue;
    t.recv_reqs[r++] = rc.irecv(t.lane, update_tag(task_index, a));
  }
}

bool Runtime::collect_update(Task& t) {
  // Algorithm 1, lines 36-42. The pre-copy of inout arguments happens
  // before any received value is applied, so a partial update (some args
  // applied, then the executor's crash fails the rest) can be rolled back
  // for local re-execution.
  make_inout_copies(t);
  const TaskDef& def = defs_[static_cast<std::size_t>(t.def)];
  mpi::Comm& rc = comm_.replica_comm();
  std::size_t r = 0;
  for (std::size_t a = 0; a < def.num_args; ++a) {
    if (def.specs[a].tag == ArgTag::kIn) continue;
    mpi::Status st = rc.wait(t.recv_reqs[r]);
    if (st.failed) return false;
    support::copy_into(
        std::span<const std::byte>(t.recv_reqs[r].state().data),
        t.bindings[a]);
    ++r;
  }
  ++stats_.tasks_received;
  return true;
}

void Runtime::section_end() {
  REPMPI_CHECK_MSG(in_section_, "section_end without section_begin");
  mpi::Proc& proc = comm_.proc();
  const double t_start = proc.now();

  comm_.alive_lanes(comm_.rank(), lanes_);
  const std::vector<int>& lanes = lanes_;
  const bool shared = config_.mode == Mode::kShared && lanes.size() > 1 &&
                      !tasks_.empty();

  if (!shared) {
    // Native run, classic replication (every replica computes everything),
    // or a lone survivor: execute all tasks locally; no updates to ship.
    // In classic replication the executions are bit-identical across the
    // replicas of this logical rank, so the host computes each task once
    // and shares the outputs (virtual time and stats are unchanged).
    const bool dedupe = config_.share != nullptr && config_.share->active() &&
                        config_.mode == Mode::kAllLocal && lanes.size() > 1;
    for (Task& t : tasks_) {
      maybe_crash(fault::CrashSite::kBeforeTaskExec,
                  static_cast<int>(&t - tasks_.data()));
      if (dedupe) {
        execute_task_shared(t);
      } else {
        execute_task(t, /*is_reexecution=*/false);
      }
      t.done = true;
    }
    // SDC-detecting replication: compare section outputs across replicas.
    if (config_.mode == Mode::kDuplicateVerify && lanes.size() > 1)
      verify_outputs_for_sdc(lanes);
    maybe_crash(fault::CrashSite::kSectionExit);
    in_section_ = false;
    comm_.set_in_section(false);
    ++stats_.sections;
    stats_.section_time += proc.now() - t_start;
    return;
  }

  // Assign every task to an alive lane.
  assign_lanes(lanes);

  // Overlap (paper V-A): pre-post receives for every remote task's updates
  // so transfers proceed while we compute our own tasks.
  if (config_.overlap) {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      if (tasks_[i].lane != comm_.lane()) post_update_recvs(tasks_[i], i);
    }
  }

  // Execute local tasks; with overlap on, each task's updates leave as soon
  // as it completes.
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    Task& t = tasks_[i];
    if (t.lane != comm_.lane()) continue;
    maybe_crash(fault::CrashSite::kBeforeTaskExec, static_cast<int>(i));
    execute_task(t, /*is_reexecution=*/false);
    maybe_crash(fault::CrashSite::kAfterTaskExec, static_cast<int>(i));
    if (config_.overlap) send_updates(t, lanes);
    t.done = true;
  }
  if (!config_.overlap) {
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      Task& t = tasks_[i];
      if (t.lane == comm_.lane()) send_updates(t, lanes);
      else post_update_recvs(t, i);
    }
  }
  const double t_local_done = proc.now();

  // Collect remote updates; a lane failure turns the affected tasks into
  // local re-executions (see the class comment for why this is equivalent
  // to Algorithm 1's re-scheduling at the evaluated degree).
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    Task& t = tasks_[i];
    if (t.lane == comm_.lane()) continue;
    if (collect_update(t)) {
      t.done = true;
    } else {
      REPMPI_DEBUG("logical " << comm_.rank() << " lane " << comm_.lane()
                              << ": lane " << t.lane << " failed; re-executing"
                              << " task " << i << " locally");
      execute_task(t, /*is_reexecution=*/true);
      t.done = true;
    }
  }
  stats_.update_tail_time += proc.now() - t_local_done;

  if (config_.verify_consistency) verify_consistency();
  maybe_crash(fault::CrashSite::kSectionExit);
  in_section_ = false;
  comm_.set_in_section(false);
  ++stats_.sections;
  stats_.section_time += proc.now() - t_start;
}

int Runtime::exchange_output_hash(const std::vector<int>& lanes,
                                  std::size_t arg_slot, bool charge,
                                  int* first_diff) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  std::size_t hashed_bytes = 0;
  for (const Task& t : tasks_) {
    const TaskDef& def = defs_[static_cast<std::size_t>(t.def)];
    for (std::size_t a = 0; a < def.num_args; ++a) {
      if (def.specs[a].tag == ArgTag::kIn) continue;
      h = checksum(t.bindings[a], h);
      hashed_bytes += t.bindings[a].size();
    }
  }
  if (charge) {
    comm_.proc().compute(net::ComputeCost{
        static_cast<double>(hashed_bytes),
        static_cast<double>(hashed_bytes)});
  }

  mpi::Comm& rc = comm_.replica_comm();
  const int tag = update_tag(kMaxTasksPerSection - 1, arg_slot);
  for (int lane : lanes) {
    if (lane != comm_.lane()) rc.send(lane, tag, support::as_bytes_of(h));
  }
  int diffs = 0;
  for (int lane : lanes) {
    if (lane == comm_.lane()) continue;
    mpi::Request req = rc.irecv(lane, tag);
    mpi::Status st = rc.wait(req);
    if (st.failed) continue;  // lane died meanwhile: nothing to compare
    const auto theirs = support::from_buffer<std::uint64_t>(req.state().data);
    if (theirs != h && diffs++ == 0) *first_diff = lane;
  }
  return diffs;
}

void Runtime::verify_consistency() {
  // At section exit all replicas must hold identical state (Definition 1).
  // Test-only instrumentation: uncharged, and a divergence throws.
  comm_.alive_lanes(comm_.rank(), lanes_);
  int lane = -1;
  exchange_output_hash(lanes_, kMaxArgsPerTask - 1, /*charge=*/false, &lane);
  REPMPI_CHECK_MSG(lane < 0, "replica state divergence at section "
                                 << section_seq_ << ": lane " << comm_.lane()
                                 << " vs lane " << lane);
}

void Runtime::verify_outputs_for_sdc(const std::vector<int>& lanes) {
  // Any disagreement is a detected silent error. The hash pass costs a read
  // of all output bytes (the price of SDC coverage).
  int first = -1;
  stats_.sdc_detected += exchange_output_hash(lanes, kMaxArgsPerTask - 2,
                                              /*charge=*/true, &first);
}

void Runtime::maybe_crash(fault::CrashSite site, int detail) {
  if (config_.faults) config_.faults->maybe_crash(comm_.proc(), site, detail);
}

}  // namespace repmpi::intra
