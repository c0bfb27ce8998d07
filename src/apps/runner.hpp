#pragma once

// Application run harness: builds a full simulated machine (simulator,
// network, world, replication, intra runtime) for one of the three
// configurations the paper plots —
//
//   kNative      "Open MPI"  : degree 1, no replication machinery
//   kReplicated  "SDR-MPI"   : active replication, every replica computes
//   kIntra       "intra"     : active replication + work sharing
//
// — runs an application main on every physical process, and returns virtual
// wall-clock plus per-phase and protocol statistics. All benches and
// integration tests go through this.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "fault/failure.hpp"
#include "intra/runtime.hpp"
#include "net/machine_model.hpp"
#include "replication/layout.hpp"
#include "replication/logical_comm.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"
#include "support/compute_cache.hpp"
#include "support/rng.hpp"

namespace repmpi::apps {

enum class RunMode {
  kNative,
  kReplicated,
  kIntra,
  /// Classic replication with per-section output comparison between
  /// replicas: detects silent data corruption (refs [20],[21] of the
  /// paper). Used by the SDC ablation.
  kReplicatedVerify,
};

const char* to_string(RunMode mode);

/// Paper-style labels for plot rows ("Open MPI", "SDR-MPI", "intra").
const char* paper_label(RunMode mode);

/// One run's machine and protocol. The host kernel backend is not part of
/// it: that is a process-wide setting (kernels::set_active_backend) that
/// changes host wall-clock only, never a simulated result.
struct RunConfig {
  RunMode mode = RunMode::kNative;
  int num_logical = 4;
  int degree = 2;  ///< replication degree for kReplicated / kIntra
  int cores_per_node = 4;
  net::MachineModel model{};
  intra::SchedulePolicy policy = intra::SchedulePolicy::kStaticBlock;
  bool overlap = true;
  bool verify_consistency = false;
  fault::FaultPlan* faults = nullptr;
  std::uint64_t seed = 0x5eed;
  /// Number of simulator shards (worker threads) driving this one run.
  /// 0 = classic single-threaded simulator; N >= 1 uses the sharded engine
  /// (sim/shard.hpp). Simulated results — virtual time, phase times, message
  /// and byte counts — are bit-identical between the classic engine and every
  /// shard count; only host wall-clock changes. Per-rank event streams and
  /// the event count are equal at every shard count >= 1, but the classic
  /// engine can differ (see RunResult::events). Replica-compute sharing is
  /// host-side machinery confined to one thread and is disabled when
  /// sharded (it never affects simulated results either way, and its
  /// decisions read no clock, only the config and modelled costs).
  int shards = 0;

  int effective_degree() const {
    return mode == RunMode::kNative ? 1 : degree;
  }

  intra::Runtime::Mode runtime_mode() const {
    switch (mode) {
      case RunMode::kIntra:
        return intra::Runtime::Mode::kShared;
      case RunMode::kReplicatedVerify:
        return intra::Runtime::Mode::kDuplicateVerify;
      default:
        return intra::Runtime::Mode::kAllLocal;
    }
  }
  int num_physical() const { return num_logical * effective_degree(); }
};

/// Everything an application main needs. Its kernels dispatch through the
/// process-wide backend on whichever thread runs the rank (kernels/backend.hpp).
struct AppContext {
  mpi::Proc& proc;
  rep::LogicalComm& comm;
  intra::Runtime& intra;
  const RunConfig& cfg;
  /// Replica-compute sharing handle (inert at degree 1, in verify mode,
  /// under a fault plan and in sharded runs):
  /// deterministic kernel regions the app routes through share.shared() are
  /// computed once per logical rank on the host and their output bytes
  /// shared with the sibling replicas, while every replica still charges
  /// the full simulated cost. See support/compute_cache.hpp.
  support::ComputeClient& share;
  /// Deterministic per-*logical*-rank stream: replicas of the same logical
  /// rank draw identical values (send-determinism requires it).
  support::Rng rng;

  int rank() const { return comm.rank(); }
  int size() const { return comm.size(); }
};

struct RunResult {
  double wallclock = 0;  ///< max over ranks of finish time (virtual seconds)
  std::map<std::string, double> phase_max;  ///< per phase, max over ranks
  std::map<std::string, double> phase_avg;  ///< per phase, mean over ranks
  intra::IntraStats intra_total;            ///< summed over physical ranks
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  int ranks_finished = 0;
  int ranks_crashed = 0;
  /// Graceful both-replicas-lost degradation: true when every replica of
  /// some logical rank died and the run was terminated as a reported job
  /// failure (wallclock then covers only the surviving ranks' progress).
  bool job_failed = false;
  sim::Time job_failed_time = 0.0;  ///< earliest unmaskable-loss observation
  int job_failed_logical = -1;      ///< the logical rank whose replicas died
  /// Host-side replica-compute sharing counters for this run (zero when
  /// sharing was off: degree 1, kReplicatedVerify, a non-empty fault plan,
  /// shards > 0, or REPMPI_NO_SHARED_COMPUTE). A function of the config
  /// alone: the same config gives the same counters on any host.
  support::ComputeCacheStats compute_cache;
  /// DES events executed by this run (summed over shards when sharded).
  /// Equal at every shard count >= 1. The classic engine (shards = 0) can
  /// differ: chiefly, its delay() advances the clock in place when nothing
  /// is queued before the target, which the sharded engine turns off
  /// because a shard's queue is only part of the machine (sim/shard.cpp);
  /// a few other engine-internal events differ too. The simulated results
  /// are bit-identical either way; compare wallclock/messages/bytes against
  /// the classic engine, not this host-side execution statistic.
  std::uint64_t events = 0;
  /// Sharded-engine statistics; zero on the classic single-threaded path.
  int shards = 0;
  std::uint64_t shard_windows = 0;          ///< conservative windows run
  std::uint64_t shard_cross_messages = 0;   ///< boundary-merged internode sends
  /// Replication send log, host-side (no bench metric reads it): the sum
  /// over physical ranks of each rank's peak count of live logged sends.
  /// Sharded runs trim at window boundaries, so theirs can be higher.
  std::uint64_t send_log_high_water = 0;
  /// Logged sends still held when the run ended, summed over physical
  /// ranks (zero after a failure-free run: every entry was trimmed).
  std::uint64_t send_log_live = 0;
  /// Messages the progress agents resent on NACKs (zero without a crash).
  std::uint64_t replayed_sends = 0;
  /// Receive streams the protocol opened, summed over physical ranks: one
  /// per (source, tag) stream a rank received on.
  std::uint64_t recv_streams = 0;
  /// Send and receive stream records still held at the end, summed over
  /// physical ranks. A stream that carried one message without a NACK
  /// settles to one bit (rep::StreamTable), so this is zero after a
  /// failure-free run whose streams each carried one message.
  std::uint64_t stream_records_held = 0;

  double phase(const std::string& name) const {
    const auto it = phase_max.find(name);
    return it == phase_max.end() ? 0.0 : it->second;
  }
};

using AppMain = std::function<void(AppContext&)>;

/// Runs `app` on every physical process of the configured machine.
RunResult run_app(const RunConfig& cfg, const AppMain& app);

/// Efficiency for the fixed-problem comparison of Fig. 6: the replicated
/// run uses `degree` times more physical resources, so equal run time means
/// E = 1/degree.
inline double efficiency_fixed_problem(double t_native, double t_other,
                                       int degree) {
  return t_native / t_other / static_cast<double>(degree);
}

}  // namespace repmpi::apps
