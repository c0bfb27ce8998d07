#pragma once

// A long replicated run whose designated sender dies late, shared by the
// classic-engine and sharded-engine replay tests. By the crash every
// sender's log has been trimmed hundreds of times, so the cover's progress
// agent serves the orphaned receivers' NACKs from a trimmed log.

#include "apps/runner.hpp"
#include "fault/failure.hpp"
#include "support/buffer.hpp"

namespace repmpi::testing {

inline constexpr int kLateCrashIters = 300;
/// Virtual time of the crash: about 90% into the failure-free run.
inline constexpr double kLateCrashAt = 0.0091;
/// World rank 5 is logical 1, lane 1: logical 2's lane 1 loses its
/// designated sender on the ring, and every collective tree edge from
/// logical 1 fails over too.
inline constexpr int kLateCrashVictim = 5;

/// Ring shift plus a periodic allreduce on 4 logical ranks at degree 2,
/// with the victim crashed at kLateCrashAt (none when `crash` is false).
inline apps::RunResult run_late_crash_ring(int shards, bool crash = true) {
  fault::FaultPlan plan;
  if (crash) plan.add_timed(kLateCrashVictim, kLateCrashAt);
  apps::RunConfig cfg;
  cfg.mode = apps::RunMode::kReplicated;
  cfg.num_logical = 4;
  cfg.degree = 2;
  cfg.shards = shards;
  cfg.faults = &plan;
  return apps::run_app(cfg, [](apps::AppContext& ctx) {
    rep::LogicalComm& comm = ctx.comm;
    const int right = (comm.rank() + 1) % comm.size();
    const int left = (comm.rank() - 1 + comm.size()) % comm.size();
    double acc = comm.rank() + 1.0;
    for (int it = 0; it < kLateCrashIters; ++it) {
      rep::LogicalRequest r = comm.irecv(left, 7);
      comm.send_value(right, 7, acc);
      comm.wait(r);
      acc = 0.5 * acc + support::from_buffer<double>(r.data);
      {
        mpi::ScopedPhase sp(ctx.proc, "work");
        ctx.proc.compute({2e4, 1e5});
      }
      if (it % 10 == 9) {
        acc = comm.allreduce_value(acc, mpi::ReduceOp::kSum) / comm.size();
      }
    }
  });
}

}  // namespace repmpi::testing
