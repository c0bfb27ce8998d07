// Integration tests for the HPCCG proxy across the three run modes:
// numerical correctness (CG converges to the all-ones solution), bitwise
// cross-mode agreement, crash resilience, and the efficiency shape that
// Fig. 5 rests on.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <mutex>

#include "apps/hpccg.hpp"
#include "apps/runner.hpp"

namespace repmpi::apps {
namespace {

struct HpccgRun {
  RunResult run;
  std::map<int, HpccgResult> per_rank;  // world rank -> result
};

HpccgRun run_hpccg(RunMode mode, int num_logical, HpccgParams p,
                   fault::FaultPlan* faults = nullptr) {
  RunConfig cfg;
  cfg.mode = mode;
  cfg.num_logical = num_logical;
  cfg.faults = faults;
  cfg.verify_consistency = true;
  HpccgRun out;
  out.run = run_app(cfg, [&](AppContext& ctx) {
    const HpccgResult r = hpccg(ctx, p);
    out.per_rank[ctx.proc.world_rank()] = r;
  });
  return out;
}

TEST(Hpccg, ConvergesTowardOnes) {
  HpccgParams p;
  p.nx = p.ny = p.nz = 8;
  p.iterations = 20;
  const auto run = run_hpccg(RunMode::kNative, 4, p);
  const auto& r = run.per_rank.at(0);
  EXPECT_GT(r.rnorm0, 0.0);
  EXPECT_LT(r.rnorm, 1e-6 * r.rnorm0);
  // Solution is the all-ones vector: xsum == global unknowns.
  EXPECT_NEAR(r.xsum, 8.0 * 8.0 * 8.0 * 4, 1e-6 * 8 * 8 * 8 * 4);
}

TEST(Hpccg, SendLogStaysBoundedAsIterationsGrow) {
  // The replication send log is trimmed below the receivers' floors, so
  // its peak does not grow with the run length.
  HpccgParams p;
  p.nx = p.ny = p.nz = 6;
  p.iterations = 4;
  const auto short_run = run_hpccg(RunMode::kReplicated, 4, p);
  p.iterations = 16;
  const auto long_run = run_hpccg(RunMode::kReplicated, 4, p);
  EXPECT_GT(short_run.run.send_log_high_water, 0u);
  EXPECT_EQ(long_run.run.send_log_high_water,
            short_run.run.send_log_high_water);
  EXPECT_GT(long_run.run.net_messages, 2 * short_run.run.net_messages);
}

TEST(Hpccg, AllModesAgreeBitwise) {
  HpccgParams p;
  p.nx = p.ny = p.nz = 8;
  p.iterations = 10;
  const auto native = run_hpccg(RunMode::kNative, 4, p);
  const auto repl = run_hpccg(RunMode::kReplicated, 4, p);
  const auto intra = run_hpccg(RunMode::kIntra, 4, p);
  // Same problem decomposition; the CG recurrence must match exactly: the
  // kernels and reduction orders are deterministic by construction.
  const auto& rn = native.per_rank.at(0);
  for (const auto& [rank, r] : repl.per_rank) {
    EXPECT_DOUBLE_EQ(r.rnorm, rn.rnorm) << "replicated rank " << rank;
    EXPECT_DOUBLE_EQ(r.xsum, rn.xsum);
  }
  for (const auto& [rank, r] : intra.per_rank) {
    EXPECT_DOUBLE_EQ(r.rnorm, rn.rnorm) << "intra rank " << rank;
    EXPECT_DOUBLE_EQ(r.xsum, rn.xsum);
  }
}

TEST(Hpccg, IntraSurvivesReplicaCrashWithIdenticalResult) {
  HpccgParams p;
  p.nx = p.ny = p.nz = 8;
  p.iterations = 10;
  const auto native = run_hpccg(RunMode::kNative, 4, p);

  fault::FaultPlan plan;
  // Logical rank 1, lane 1 (world rank 5 of 8) dies mid-section during the
  // 3rd sparsemv-ish task execution.
  plan.add({.world_rank = 5, .site = fault::CrashSite::kAfterTaskExec,
            .nth = 3});
  const auto intra = run_hpccg(RunMode::kIntra, 4, p, &plan);
  EXPECT_EQ(intra.run.ranks_crashed, 1);
  EXPECT_EQ(intra.run.ranks_finished, 7);
  const auto& rn = native.per_rank.at(0);
  for (const auto& [rank, r] : intra.per_rank) {
    EXPECT_DOUBLE_EQ(r.rnorm, rn.rnorm) << "rank " << rank;
    EXPECT_DOUBLE_EQ(r.xsum, rn.xsum) << "rank " << rank;
  }
}

TEST(Hpccg, ReplicatedSurvivesCrashOutsideSections) {
  HpccgParams p;
  p.nx = p.ny = p.nz = 8;
  p.iterations = 10;
  const auto native = run_hpccg(RunMode::kNative, 4, p);

  fault::FaultPlan plan;
  plan.add({.world_rank = 6, .site = fault::CrashSite::kBeforeTaskExec,
            .nth = 5});
  const auto repl = run_hpccg(RunMode::kReplicated, 4, p, &plan);
  EXPECT_EQ(repl.run.ranks_crashed, 1);
  const auto& rn = native.per_rank.at(0);
  for (const auto& [rank, r] : repl.per_rank) {
    EXPECT_DOUBLE_EQ(r.rnorm, rn.rnorm) << "rank " << rank;
  }
}

TEST(Hpccg, EfficiencyShape) {
  // Fixed physical resources (the Fig. 5a protocol): native runs P logical
  // ranks with nz; replicated/intra run P/2 logical ranks with 2*nz.
  // Sharing ddot+sparsemv must put intra clearly above SDR-MPI's 0.5 and
  // below 1.
  HpccgParams p_native;
  p_native.nx = p_native.ny = 16;
  p_native.nz = 16;
  p_native.iterations = 6;
  HpccgParams p_repl = p_native;
  p_repl.nz = 32;

  const double t_native =
      run_hpccg(RunMode::kNative, 8, p_native).run.wallclock;
  const double t_repl =
      run_hpccg(RunMode::kReplicated, 4, p_repl).run.wallclock;
  const double t_intra = run_hpccg(RunMode::kIntra, 4, p_repl).run.wallclock;

  // Fixed resources: native and replicated runs use the same 8 processes.
  const double e_repl = t_native / t_repl;
  const double e_intra = t_native / t_intra;
  EXPECT_GT(e_repl, 0.40);
  EXPECT_LT(e_repl, 0.55);
  EXPECT_GT(e_intra, 0.65);  // paper Fig. 5b: ~0.8
  EXPECT_LT(e_intra, 1.0);
  EXPECT_GT(e_intra, e_repl + 0.1);
}

TEST(Hpccg, PhaseBreakdownRecorded) {
  HpccgParams p;
  p.nx = p.ny = p.nz = 8;
  p.iterations = 5;
  const auto run = run_hpccg(RunMode::kNative, 4, p);
  EXPECT_GT(run.run.phase("sparsemv"), 0.0);
  EXPECT_GT(run.run.phase("ddot"), 0.0);
  EXPECT_GT(run.run.phase("waxpby"), 0.0);
  EXPECT_GT(run.run.phase("comm"), 0.0);
  // sparsemv dominates the kernels (27 nnz per row).
  EXPECT_GT(run.run.phase("sparsemv"), run.run.phase("waxpby"));
}

}  // namespace
}  // namespace repmpi::apps
