// Hostile-environment benches — the failure/machine space the paper could
// not run (ROADMAP open item 5): correlated domain kills vs replica
// placement, straggler nodes, and bursty silent data corruption. Each bench
// drives a seeded, fully deterministic hostile scenario through the normal
// run harness and reports measured-vs-model gap metrics against the
// analytic models in src/model/efficiency.cpp, so model drift and simulator
// drift both show up in the perf gate.
//
// All scenario randomness is drawn from support::Rng with fixed seeds
// *before* the simulation starts; every reported metric is a function of
// virtual time alone and is bit-identical across --jobs / --shards /
// --backend.

#include <cmath>
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

// --- hostile_correlated ----------------------------------------------------
//
// A switch/PSU domain failure takes out every node of the domain at one
// instant. With the paper's plain placement a domain can hold *both*
// replicas of a logical rank (a fatal domain); domain-aware placement pads
// replica planes to whole domains so no domain is fatal. The bench kills
// each domain once (deterministically, at 30% of the failure-free run) and
// compares the measured fatal fraction against the closed-form
// domain_kill_interrupt_probability — an exact model, so the gap pins the
// graceful both-replicas-lost path end to end.

REPMPI_BENCH(hostile_correlated,
             "H1: correlated domain kills vs replica placement") {
  const Options& opt = ctx.opt();
  // Fixed 16 physical ranks (8 logical, degree 2): small enough for smoke,
  // big enough that a fatal domain kill leaves survivors to observe the
  // loss. Deliberately not the smoke-scaled "procs" knob.
  const int num_logical = static_cast<int>(opt.get_int("hlogical", 8));
  const int cores_per_node = 4;
  const int nodes_per_domain = 3;
  const apps::HpccgParams p = hpccg_params(opt);
  const int shards = static_cast<int>(opt.get_int("shards", 0));

  print_header(ctx.out(), "H1 — correlated domain kills vs replica placement",
               "beyond the paper: ROADMAP open item 5 (hostile machines)",
               "a fatal domain (both replicas of some logical rank inside) "
               "ends the job as a reported failure; domain-aware placement "
               "has no fatal domains");

  RunConfig cfg;
  cfg.mode = RunMode::kReplicated;
  cfg.num_logical = num_logical;
  cfg.degree = 2;
  cfg.cores_per_node = cores_per_node;
  cfg.nodes_per_domain = nodes_per_domain;
  cfg.domain_aware_placement = false;  // the paper's plain placement
  cfg.shards = shards;

  const rep::ReplicaLayout layout{num_logical, 2};
  const net::Topology naive = layout.make_topology_domains(
      cores_per_node, nodes_per_domain, /*domain_aware=*/false);
  const net::Topology aware = layout.make_topology_domains(
      cores_per_node, nodes_per_domain, /*domain_aware=*/true);

  const double fatal_model_naive =
      model::domain_kill_interrupt_probability(naive, num_logical, 2);
  const double fatal_model_aware =
      model::domain_kill_interrupt_probability(aware, num_logical, 2);

  const double t_free = run_hpccg(cfg, p).wallclock;

  // Kill each domain of the naive machine once; count the job failures.
  Table t({"placement", "domain killed", "job_failed", "time of death (s)",
           "wallclock (s)"});
  int fatal_measured = 0;
  double first_death_time = 0.0;
  for (int d = 0; d < naive.num_domains(); ++d) {
    fault::FaultPlan plan;
    fault::kill_domain_at(plan, naive, d, 0.3 * t_free);
    RunConfig run_cfg = cfg;
    run_cfg.faults = &plan;
    const RunResult res = run_hpccg(run_cfg, p);
    if (res.job_failed) {
      ++fatal_measured;
      if (fatal_measured == 1) first_death_time = res.job_failed_time;
    }
    t.add_row({"naive", std::to_string(d), res.job_failed ? "yes" : "no",
               res.job_failed ? Table::fmt(res.job_failed_time, 6) : "-",
               Table::fmt(res.wallclock, 4)});
  }
  const double fatal_measured_frac =
      static_cast<double>(fatal_measured) /
      static_cast<double>(naive.num_domains());

  // Same first-domain kill under domain-aware placement: one lane dies, the
  // job degrades to the survivor lane and completes.
  fault::FaultPlan aware_plan;
  fault::kill_domain_at(aware_plan, aware, 0, 0.3 * t_free);
  RunConfig aware_cfg = cfg;
  aware_cfg.domain_aware_placement = true;
  aware_cfg.faults = &aware_plan;
  const RunResult aware_res = run_hpccg(aware_cfg, p);
  t.add_row({"domain-aware", "0", aware_res.job_failed ? "yes" : "no",
             aware_res.job_failed ? Table::fmt(aware_res.job_failed_time, 6)
                                  : "-",
             Table::fmt(aware_res.wallclock, 4)});
  t.print(ctx.out());

  // Reference hostile climate: domain kills at a rate that would produce
  // one expected kill per run horizon across the machine.
  const double rate = 1.0 / (t_free * naive.num_domains());
  const double p_fail_naive = model::domain_kill_job_failure_probability(
      rate, t_free, fatal_model_naive, naive.num_domains());
  const double p_fail_aware = model::domain_kill_job_failure_probability(
      rate, t_free, fatal_model_aware, aware.num_domains());
  ctx.out() << "Model check: fatal-domain fraction measured "
            << Table::fmt(fatal_measured_frac, 3) << " vs closed form "
            << Table::fmt(fatal_model_naive, 3)
            << "; at 1 expected kill/run, P(job failure) = "
            << Table::fmt(p_fail_naive, 3) << " naive vs "
            << Table::fmt(p_fail_aware, 3) << " domain-aware.\n";

  ctx.metric("fatal_fraction_measured", fatal_measured_frac);
  ctx.metric("fatal_fraction_model", fatal_model_naive);
  ctx.metric("fatal_fraction_gap",
             std::abs(fatal_measured_frac - fatal_model_naive));
  ctx.metric("job_failed_naive_d0", fatal_measured > 0 ? 1.0 : 0.0);
  ctx.metric("job_failed_time_d0", first_death_time);
  ctx.metric("job_failed_aware_d0", aware_res.job_failed ? 1.0 : 0.0);
  ctx.metric("model_fail_prob_naive", p_fail_naive);
  ctx.metric("model_fail_prob_aware", p_fail_aware);
  return 0;
}

// --- hostile_stragglers ----------------------------------------------------
//
// Per-node compute slowdown factors. A bulk-synchronous app advances at the
// slowest rank's pace, so the analytic bound is E = 1/max(slowdown); the
// measured efficiency approaches it from above because communication phases
// and protocol overheads are not slowed. The gap *is* the non-compute
// fraction of the critical path — a quantity the closed-form model cannot
// see but the simulator measures.

REPMPI_BENCH(hostile_stragglers, "H2: straggler nodes vs 1/max-slowdown") {
  const Options& opt = ctx.opt();
  const int procs = static_cast<int>(opt.get_int("procs", 8));
  const apps::HpccgParams p = hpccg_params(opt);
  const int shards = static_cast<int>(opt.get_int("shards", 0));

  print_header(ctx.out(), "H2 — straggler nodes vs the 1/max-slowdown bound",
               "beyond the paper: ROADMAP open item 5 (hostile machines)",
               "measured efficiency tracks 1/max(slowdown) from above; the "
               "gap is the unslowed communication share of the critical "
               "path");

  RunConfig cfg;
  cfg.mode = RunMode::kIntra;
  cfg.num_logical = procs / 2;
  cfg.shards = shards;
  const rep::ReplicaLayout layout{cfg.num_logical, 2};
  const int num_nodes =
      layout.make_topology(cfg.cores_per_node).num_nodes();

  const double t_base = run_hpccg(cfg, p).wallclock;

  Table t({"slow factor", "stragglers", "time (s)", "E measured", "E model",
           "gap"});
  double last_gap = 0.0;
  for (const double factor : {1.5, 2.0, 4.0}) {
    support::Rng gen(0x57a661e5u ^ static_cast<std::uint64_t>(factor * 16));
    RunConfig run_cfg = cfg;
    run_cfg.model.node_slowdown = fault::generate_straggler_slowdowns(
        num_nodes, /*fraction=*/0.25, factor, gen);
    const double t_slow = run_hpccg(run_cfg, p).wallclock;
    const double eff_measured = t_base / t_slow;
    const double eff_model =
        model::straggler_efficiency(run_cfg.model.node_slowdown);
    int count = 0;
    for (double s : run_cfg.model.node_slowdown) count += s > 1.0;
    const double gap = eff_measured - eff_model;
    last_gap = gap;
    t.add_row({Table::fmt(factor, 1),
               std::to_string(count) + "/" + std::to_string(num_nodes),
               Table::fmt(t_slow, 4), fmt_eff(eff_measured),
               fmt_eff(eff_model), Table::fmt(gap, 3)});
    const std::string suffix = "_x" + std::to_string(static_cast<int>(
                                          factor * 10));
    ctx.metric("straggler_eff" + suffix, eff_measured);
    ctx.metric("straggler_model" + suffix, eff_model);
    ctx.metric("straggler" + suffix + "_gap", gap);
  }
  t.print(ctx.out());
  ctx.out() << "The measured line sits above the bound by the unslowed "
               "communication fraction (last gap "
            << Table::fmt(last_gap, 3) << ").\n";
  return 0;
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
