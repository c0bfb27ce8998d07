// Ablation A3 — behaviour under failures (paper Section VI "Efficiency of
// the proposed technique").
//
// The paper evaluates only failure-free runs and argues qualitatively that
// (a) crashes outside sections cost nothing beyond the lost replica,
// (b) crashes inside sections cost one re-execution of the lost tasks, and
// (c) after a crash the logical process computes alone until the replica is
// restarted, so restart latency bounds the degradation. This bench measures
// (a) and (b) directly with injected crashes in HPCCG, and quantifies (c)
// by sweeping the crash time: the earlier the (unrepaired) crash, the
// longer the survivor runs unshared. A last case kills both replicas of
// one logical rank at one instant: nothing can cover that loss, so the run
// must end as a reported job failure, never a hang. Its job_failed_*
// metrics are exact-matched by the drift gate, also in the sharded pass.

#include "apps/hpccg.hpp"
#include "bench_common.hpp"

namespace repmpi::bench {
namespace {

RunResult run_with_plan(fault::FaultPlan* plan, int procs, int nx, int iters,
                        int shards) {
  RunConfig cfg;
  cfg.mode = RunMode::kIntra;
  cfg.num_logical = procs / 2;
  cfg.faults = plan;
  cfg.shards = shards;
  apps::HpccgParams p;
  p.nx = p.ny = nx;
  p.nz = 2 * nx;
  p.iterations = iters;
  return apps::run_app(cfg,
                       [&](apps::AppContext& ctx) { apps::hpccg(ctx, p); });
}

REPMPI_BENCH(failures, "A3: crash impact on intra-parallelized HPCCG") {
  const Options& opt = ctx.opt();
  const int procs = static_cast<int>(opt.get_int("procs", 8));
  const int nx = static_cast<int>(opt.get_int("nx", 32));
  const int iters = static_cast<int>(opt.get_int("iters", 8));
  const int shards = static_cast<int>(opt.get_int("shards", 0));

  print_header(ctx.out(), "Ablation A3 — crash impact on intra-parallelized HPCCG",
               "Ropars et al., IPDPS'15, Section VI (discussion)",
               "a crash degrades the affected logical process to unshared "
               "execution from the crash point on; the earlier the crash, "
               "the closer its run time gets to classic replication");

  const double t_free =
      run_with_plan(nullptr, procs, nx, iters, shards).wallclock;

  Table t({"crash site", "when", "time (s)", "slowdown vs failure-free"});
  t.add_row({"(none)", "-", Table::fmt(t_free, 4), "1.000"});

  struct Case {
    const char* name;
    const char* slug;  ///< stable metric suffix (nth values can collide
                       ///< across cases at scaled-down --smoke sizes)
    fault::CrashSite site;
    int nth;
  };
  // sparsemv+ddot sections: ~16 local task executions per CG iteration.
  const int per_iter_tasks = 16;
  for (const Case& c :
       {Case{"mid-task, 1st iteration", "mid_task_first",
             fault::CrashSite::kAfterTaskExec, 2},
        Case{"mid-update, 1st iteration", "mid_update_first",
             fault::CrashSite::kBetweenArgSends, 3},
        Case{"mid-task, half way", "mid_task_half",
             fault::CrashSite::kAfterTaskExec, per_iter_tasks * iters / 2},
        Case{"mid-task, last iteration", "mid_task_last",
             fault::CrashSite::kAfterTaskExec,
             per_iter_tasks * (iters - 1) + 1},
        Case{"outside sections (entry of 2nd half)", "outside_sections",
             fault::CrashSite::kSectionEntry, 3 * iters / 2}}) {
    fault::FaultPlan plan;
    plan.add({.world_rank = procs / 2 + 1, .site = c.site, .nth = c.nth});
    const double tt = run_with_plan(&plan, procs, nx, iters, shards).wallclock;
    t.add_row({c.name, "nth=" + std::to_string(c.nth), Table::fmt(tt, 4),
               Table::fmt(tt / t_free, 3)});
    ctx.metric(std::string("slowdown_") + c.slug, tt / t_free);
  }

  // Both replicas of logical rank 1 die at the same instant.
  const rep::ReplicaLayout layout{procs / 2, 2};
  fault::FaultPlan pair;
  for (int lane = 0; lane < layout.degree; ++lane)
    pair.add_timed(layout.phys_rank(1, lane), 0.3 * t_free);
  const RunResult lost = run_with_plan(&pair, procs, nx, iters, shards);
  t.add_row({"both replicas of logical 1", "t=0.3*T",
             lost.job_failed ? Table::fmt(lost.job_failed_time, 6) : "-",
             lost.job_failed ? "job failed (logical " +
                                   std::to_string(lost.job_failed_logical) + ")"
                             : "survived"});
  ctx.metric("job_failed_pair", lost.job_failed ? 1.0 : 0.0);
  ctx.metric("job_failed_time_pair", lost.job_failed_time);
  t.print(ctx.out());

  ctx.out() << "Reference points: a crash at t=0 degrades the affected "
               "logical process to SDR-MPI speed (x"
            << Table::fmt(2.0 * t_free / t_free, 1)
            << " on sections it owns alone); the paper argues restart cost "
               "is low [19], so real deployments stay near the failure-free "
               "line.\n";
  return 0;
}

}  // namespace
}  // namespace repmpi::bench
