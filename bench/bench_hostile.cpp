// Hostile-environment bench — bursty silent data corruption, the one
// failure process of this family the simulator keeps (EXPERIMENTS.md). It
// drives a seeded, fully deterministic scenario through the normal run
// harness and reports measured-vs-model gap metrics against the analytic
// models in src/model/efficiency.cpp, so model drift and simulator drift
// both show up in the perf gate.
//
// All scenario randomness is drawn from support::Rng with fixed seeds
// *before* the simulation starts; every reported metric is a function of
// virtual time alone and is bit-identical across --jobs / --shards /
// --backend.

#include <cstdint>

#include "apps/hpccg.hpp"
#include "bench_common.hpp"
#include "fault/generators.hpp"
#include "model/efficiency.hpp"

namespace repmpi::bench {
namespace {

apps::HpccgParams hpccg_params(const Options& opt) {
  apps::HpccgParams p;
  p.nx = p.ny = static_cast<int>(opt.get_int("nx", 16));
  p.nz = 2 * p.nx;
  p.iterations = static_cast<int>(opt.get_int("iters", 4));
  return p;
}

RunResult run_hpccg(const RunConfig& cfg, const apps::HpccgParams& p) {
  return apps::run_app(cfg,
                       [&](apps::AppContext& ctx) { apps::hpccg(ctx, p); });
}

// --- hostile_sdc -----------------------------------------------------------
//
// Bursty silent data corruption: arrivals from a non-homogeneous Poisson
// process (base rate, burst multiplier over the middle third of the run)
// generated by thinning, planted as time-triggered corruption rules, and
// detected by duplicate-execution replication (kReplicatedVerify — detect
// only, no repair, so wallclock is corruption-independent). The efficiency
// comparison feeds both sides through sdc_reexec_efficiency with the
// measured per-task critical-path cost: the *measured* side uses the event
// count the simulator actually injected, the *model* side the NHPP mean, so
// the gap is exactly one thinning draw's deviation from the mean expressed
// as lost efficiency of a repairing system.

REPMPI_BENCH(hostile_sdc, "H3: bursty SDC via NHPP thinning") {
  const Options& opt = ctx.opt();
  const int procs = static_cast<int>(opt.get_int("procs", 8));
  const apps::HpccgParams p = hpccg_params(opt);
  const int shards = static_cast<int>(opt.get_int("shards", 0));

  print_header(ctx.out(), "H3 — bursty SDC (NHPP thinning) vs re-execution model",
               "beyond the paper: ROADMAP open item 5; NHPP thinning cf. "
               "arXiv:1901.10754",
               "duplicate-execution replication detects every injected "
               "corruption; re-execution cost follows 1/(1 + N*c)");

  RunConfig cfg;
  cfg.mode = RunMode::kReplicatedVerify;
  cfg.num_logical = procs / 2;
  cfg.shards = shards;

  const RunResult free_res = run_hpccg(cfg, p);
  const double t_free = free_res.wallclock;
  const double tasks_free =
      static_cast<double>(free_res.intra_total.tasks_executed);
  // Critical-path cost of one re-executed task, as a fraction of the run:
  // per-rank section share divided by the per-rank task count.
  const double per_task_cost =
      free_res.intra_total.section_time /
      (tasks_free > 0 ? tasks_free : 1.0) / t_free;

  const double base_rate = 2.0 / t_free;  // ~2 base events per rank
  const double burst_start = t_free / 3.0;
  const double burst_end = 2.0 * t_free / 3.0;
  const int num_physical = cfg.num_physical();

  Table t({"burst factor", "planted", "injected", "detected", "model E[N]",
           "E measured", "E model", "gap"});
  for (const double burst : {1.0, 4.0, 16.0}) {
    fault::FaultPlan plan;
    support::Rng gen(0x5dc0ffeeu ^ static_cast<std::uint64_t>(burst));
    const int planted = fault::generate_bursty_sdc(
        plan, num_physical, base_rate, burst, burst_start, burst_end, t_free,
        gen);
    RunConfig run_cfg = cfg;
    run_cfg.faults = &plan;
    const RunResult res = run_hpccg(run_cfg, p);
    const double expected = static_cast<double>(num_physical) *
                            model::nhpp_expected_events(
                                base_rate, burst, burst_start, burst_end,
                                t_free);
    const double eff_measured = model::sdc_reexec_efficiency(
        static_cast<double>(res.intra_total.sdc_injected), per_task_cost);
    const double eff_model =
        model::sdc_reexec_efficiency(expected, per_task_cost);
    const double gap = eff_measured - eff_model;
    t.add_row({Table::fmt(burst, 0), std::to_string(planted),
               std::to_string(res.intra_total.sdc_injected),
               std::to_string(res.intra_total.sdc_detected),
               Table::fmt(expected, 1), fmt_eff(eff_measured),
               fmt_eff(eff_model), Table::fmt(gap, 3)});
    const std::string suffix = "_b" + std::to_string(static_cast<int>(burst));
    ctx.metric("sdc_planted" + suffix, static_cast<double>(planted));
    ctx.metric("sdc_detected" + suffix,
               static_cast<double>(res.intra_total.sdc_detected));
    ctx.metric("sdc_expected_model" + suffix, expected);
    ctx.metric("sdc_eff" + suffix, eff_measured);
    ctx.metric("sdc" + suffix + "_gap", gap);
  }
  t.print(ctx.out());
  ctx.out() << "Planted counts are one NHPP draw and scatter around the "
               "model mean E[N]; 'detected' counts per-section hash "
               "mismatches on every lane, so one corruption can be flagged "
               "by both replicas.\n";
  return 0;
}

}  // namespace
}  // namespace repmpi::bench
