// Hostile-environment fault injection: correlated domain kills, timed
// crashes, straggler machines, plan validation, and the graceful
// both-replicas-lost path. The load-bearing properties:
//
//  * a logical rank losing EVERY replica terminates the run as a reported
//    job failure (RunResult::job_failed + time of death) — never a deadlock
//    and never the stuck-shard detector, including under the sharded engine;
//  * hostile machines (stragglers, domain kills, bursty SDC) keep the
//    bit-identity contract: a fixed seed gives identical simulated results
//    at every shard count;
//  * generators are pure functions of (seed, parameters);
//  * malformed fault plans are rejected at plan-build time.

#include <gtest/gtest.h>

#include <cmath>

#include "apps/hpccg.hpp"
#include "apps/runner.hpp"
#include "fault/generators.hpp"
#include "model/efficiency.hpp"
#include "replication/layout.hpp"
#include "support/error.hpp"

namespace repmpi::apps {
namespace {

HpccgParams small_hpccg() {
  HpccgParams p;
  p.nx = p.ny = p.nz = 8;
  p.iterations = 4;
  return p;
}

RunResult run_hpccg(const RunConfig& cfg) {
  const HpccgParams p = small_hpccg();
  return run_app(cfg, [&](AppContext& ctx) { hpccg(ctx, p); });
}

RunConfig replicated_cfg(int num_logical, int shards = 0) {
  RunConfig cfg;
  cfg.mode = RunMode::kReplicated;
  cfg.num_logical = num_logical;
  cfg.degree = 2;
  cfg.shards = shards;
  return cfg;
}

// --- Plan validation -------------------------------------------------------

TEST(FaultPlanValidate, RejectsBadCrashRule) {
  fault::FaultPlan plan;
  plan.add({.world_rank = 8, .site = fault::CrashSite::kBeforeTaskExec,
            .nth = 1});
  EXPECT_THROW(plan.validate(8), support::UsageError);

  fault::FaultPlan neg;
  neg.add({.world_rank = 0, .site = fault::CrashSite::kBeforeTaskExec,
           .nth = 0});
  EXPECT_THROW(neg.validate(8), support::UsageError);
}

TEST(FaultPlanValidate, RejectsBadCorruptionAndTimedRules) {
  fault::FaultPlan plan;
  fault::CorruptionRule rule;
  rule.world_rank = -1;
  rule.nth = 1;
  plan.add_corruption(rule);
  EXPECT_THROW(plan.validate(4), support::UsageError);

  fault::FaultPlan timed;
  timed.add_timed(0, -2.0);
  EXPECT_THROW(timed.validate(4), support::UsageError);

  fault::FaultPlan nan_timed;
  nan_timed.add_timed(0, std::nan(""));
  EXPECT_THROW(nan_timed.validate(4), support::UsageError);
}

TEST(FaultPlanValidate, RunnerRejectsInvalidPlan) {
  fault::FaultPlan plan;
  plan.add_timed(/*world_rank=*/99, /*at=*/1e-4);
  RunConfig cfg = replicated_cfg(4);
  cfg.faults = &plan;
  EXPECT_THROW(run_hpccg(cfg), support::UsageError);
}

TEST(FaultPlanValidate, AcceptsWellFormedPlan) {
  fault::FaultPlan plan;
  plan.add_timed(0, 1e-3);
  fault::CorruptionRule rule;
  rule.world_rank = 1;
  rule.at = 5e-4;
  plan.add_corruption(rule);
  EXPECT_NO_THROW(plan.validate(8));
}

// --- Graceful both-replicas-lost degradation -------------------------------

// Both replicas of logical 0 die at the SAME virtual instant, mid-run. The
// survivors observe the unmaskable loss and the run terminates as a
// reported job failure; a hang here would trip the 600 s test timeout.
TEST(JobFailure, SameTimestampDoubleCrashReportsFailure) {
  RunConfig cfg = replicated_cfg(4);
  const double t_free = run_hpccg(cfg).wallclock;
  ASSERT_GT(t_free, 0.0);

  fault::FaultPlan plan;
  plan.add_timed(0, 0.5 * t_free);                  // logical 0, lane 0
  plan.add_timed(cfg.num_logical, 0.5 * t_free);    // logical 0, lane 1
  cfg.faults = &plan;
  const RunResult res = run_hpccg(cfg);

  EXPECT_TRUE(res.job_failed);
  EXPECT_EQ(res.job_failed_logical, 0);
  EXPECT_GE(res.job_failed_time, 0.5 * t_free);
  EXPECT_EQ(res.ranks_finished, 0);  // survivors were aborted, not hung
}

// Single-lane loss at the same spot stays maskable: replication absorbs it.
TEST(JobFailure, SingleLaneCrashIsMasked) {
  RunConfig cfg = replicated_cfg(4);
  const double t_free = run_hpccg(cfg).wallclock;

  fault::FaultPlan plan;
  plan.add_timed(0, 0.5 * t_free);
  cfg.faults = &plan;
  const RunResult res = run_hpccg(cfg);

  EXPECT_FALSE(res.job_failed);
  EXPECT_EQ(res.ranks_crashed, 1);
  EXPECT_GT(res.ranks_finished, 0);
}

// A correlated domain kill wiping every replica of some logical ranks (the
// paper's plain placement on a domain-annotated machine) must also land on
// the reported-failure path; domain-aware placement survives the identical
// kill because no domain holds a full replica set.
TEST(JobFailure, DomainKillFatalOnNaivePlacementSurvivedByAware) {
  constexpr int kLogical = 8;
  constexpr int kNodesPerDomain = 3;
  const rep::ReplicaLayout layout{kLogical, 2};

  RunConfig cfg = replicated_cfg(kLogical);
  cfg.nodes_per_domain = kNodesPerDomain;
  cfg.domain_aware_placement = false;
  const double t_free = run_hpccg(cfg).wallclock;

  const net::Topology naive = layout.make_topology_domains(
      cfg.cores_per_node, kNodesPerDomain, /*domain_aware=*/false);
  ASSERT_GT(model::domain_kill_interrupt_probability(naive, kLogical, 2), 0.0);

  fault::FaultPlan kill;
  fault::kill_domain_at(kill, naive, /*domain=*/0, 0.4 * t_free);
  cfg.faults = &kill;
  const RunResult dead = run_hpccg(cfg);
  EXPECT_TRUE(dead.job_failed);
  EXPECT_GE(dead.job_failed_time, 0.4 * t_free);

  // Same domain index killed under domain-aware placement: one lane dies
  // wholesale, the other completes the job.
  const net::Topology aware = layout.make_topology_domains(
      cfg.cores_per_node, kNodesPerDomain, /*domain_aware=*/true);
  EXPECT_EQ(model::domain_kill_interrupt_probability(aware, kLogical, 2), 0.0);
  fault::FaultPlan aware_kill;
  fault::kill_domain_at(aware_kill, aware, /*domain=*/0, 0.4 * t_free);
  RunConfig aware_cfg = cfg;
  aware_cfg.domain_aware_placement = true;
  aware_cfg.faults = &aware_kill;
  const RunResult alive = run_hpccg(aware_cfg);
  EXPECT_FALSE(alive.job_failed);
  EXPECT_GT(alive.ranks_finished, 0);
}

// The sharded engine must take the identical reported-failure path: no
// hang, no stuck-shard abort, and bit-identical failure metrics.
TEST(JobFailure, ShardedRunReportsIdenticalFailure) {
  RunConfig cfg = replicated_cfg(4);
  const double t_free = run_hpccg(cfg).wallclock;

  fault::FaultPlan plan;
  plan.add_timed(0, 0.5 * t_free);
  plan.add_timed(cfg.num_logical, 0.5 * t_free);
  cfg.faults = &plan;
  const RunResult classic = run_hpccg(cfg);
  ASSERT_TRUE(classic.job_failed);

  fault::FaultPlan plan2;
  plan2.add_timed(0, 0.5 * t_free);
  plan2.add_timed(cfg.num_logical, 0.5 * t_free);
  RunConfig sharded_cfg = cfg;
  sharded_cfg.shards = 2;
  sharded_cfg.faults = &plan2;
  const RunResult sharded = run_hpccg(sharded_cfg);

  EXPECT_TRUE(sharded.job_failed);
  EXPECT_EQ(sharded.job_failed_logical, classic.job_failed_logical);
  EXPECT_EQ(sharded.job_failed_time, classic.job_failed_time);
  EXPECT_EQ(sharded.ranks_finished, classic.ranks_finished);
}

// --- Hostile machines keep the bit-identity contract -----------------------

// One maximally hostile-but-survivable scenario: stragglers, a single-lane
// domain kill, and bursty SDC, all from one seed. Simulated results must be
// bit-identical across shard counts.
TEST(HostileBitIdentity, IdenticalAcrossShardCounts) {
  constexpr int kLogical = 8;
  const rep::ReplicaLayout layout{kLogical, 2};
  const net::Topology aware =
      layout.make_topology_domains(4, 3, /*domain_aware=*/true);

  auto hostile_run = [&](int shards) {
    RunConfig cfg = replicated_cfg(kLogical, shards);
    cfg.mode = RunMode::kReplicatedVerify;  // exercises SDC detection too
    cfg.nodes_per_domain = 3;
    cfg.domain_aware_placement = true;
    support::Rng rng(0xbadc0de5u);
    cfg.model.node_slowdown = fault::generate_straggler_slowdowns(
        aware.num_nodes(), 0.3, 2.0, rng);

    fault::FaultPlan plan;
    fault::kill_domain_at(plan, aware, /*domain=*/1, 1e-3);
    support::Rng sdc_rng(0x5dc5eed5u);
    fault::generate_bursty_sdc(plan, 2 * kLogical, /*base_rate=*/500.0,
                               /*burst_factor=*/8.0, 5e-4, 15e-4,
                               /*horizon=*/4e-3, sdc_rng);
    cfg.faults = &plan;
    return run_hpccg(cfg);
  };

  const RunResult r0 = hostile_run(0);
  const RunResult r2 = hostile_run(2);

  EXPECT_EQ(r0.wallclock, r2.wallclock);  // exact: bit-identity contract
  EXPECT_EQ(r0.net_messages, r2.net_messages);
  EXPECT_EQ(r0.net_bytes, r2.net_bytes);
  EXPECT_EQ(r0.ranks_crashed, r2.ranks_crashed);
  EXPECT_EQ(r0.intra_total.sdc_injected, r2.intra_total.sdc_injected);
  EXPECT_EQ(r0.intra_total.sdc_detected, r2.intra_total.sdc_detected);
  EXPECT_EQ(r0.intra_total.section_time, r2.intra_total.section_time);
  EXPECT_EQ(r0.job_failed, r2.job_failed);
  // The executed-event count is deliberately NOT compared here: with
  // heterogeneous per-node speeds the substrate's wakeup elision depends on
  // same-time dispatch order, an engine-internal degree of freedom (see
  // RunResult::events). The homogeneous case is pinned below.
}

// On a homogeneous machine the executed-event count IS shard-invariant,
// faults included.
TEST(HostileBitIdentity, EventCountInvariantWithoutStragglers) {
  constexpr int kLogical = 8;
  const rep::ReplicaLayout layout{kLogical, 2};
  const net::Topology aware =
      layout.make_topology_domains(4, 3, /*domain_aware=*/true);

  auto hostile_run = [&](int shards) {
    RunConfig cfg = replicated_cfg(kLogical, shards);
    cfg.nodes_per_domain = 3;
    cfg.domain_aware_placement = true;
    fault::FaultPlan plan;
    fault::kill_domain_at(plan, aware, /*domain=*/1, 1e-3);
    cfg.faults = &plan;
    return run_hpccg(cfg);
  };

  const RunResult r0 = hostile_run(0);
  const RunResult r2 = hostile_run(2);
  EXPECT_EQ(r0.wallclock, r2.wallclock);
  EXPECT_EQ(r0.events, r2.events);
  EXPECT_EQ(r0.net_messages, r2.net_messages);
  EXPECT_EQ(r0.ranks_crashed, r2.ranks_crashed);
}

// Stragglers slow the run by at most the worst factor and at least the
// compute share; a homogeneous machine (all factors 1.0) is byte-identical
// to the default model.
TEST(HostileBitIdentity, UnitSlowdownIsByteIdentical) {
  RunConfig cfg = replicated_cfg(4);
  const RunResult base = run_hpccg(cfg);

  RunConfig unit = cfg;
  unit.model.node_slowdown.assign(16, 1.0);
  const RunResult same = run_hpccg(unit);
  EXPECT_EQ(base.wallclock, same.wallclock);

  RunConfig slow = cfg;
  slow.model.node_slowdown.assign(16, 2.0);
  const RunResult slowed = run_hpccg(slow);
  EXPECT_GT(slowed.wallclock, base.wallclock);
  EXPECT_LE(slowed.wallclock, 2.0 * base.wallclock * (1.0 + 1e-9));
}

// --- Generators are pure functions of (seed, parameters) -------------------

TEST(Generators, DeterministicAcrossCalls) {
  support::Rng a(42), b(42), c(43);
  const auto slow_a = fault::generate_straggler_slowdowns(64, 0.25, 4.0, a);
  const auto slow_b = fault::generate_straggler_slowdowns(64, 0.25, 4.0, b);
  const auto slow_c = fault::generate_straggler_slowdowns(64, 0.25, 4.0, c);
  EXPECT_EQ(slow_a, slow_b);
  EXPECT_NE(slow_a, slow_c);
}

TEST(Generators, BurstySdcCountTracksNhppMean) {
  // Average many seeded draws; the empirical mean must approach the NHPP
  // integral (this is the identity the bench's gap metric rests on).
  const double base = 200.0, factor = 6.0, b0 = 0.25, b1 = 0.75, h = 1.0;
  double total = 0;
  const int trials = 64;
  for (int s = 0; s < trials; ++s) {
    fault::FaultPlan plan;
    support::Rng rng(static_cast<std::uint64_t>(1000 + s));
    total += fault::generate_bursty_sdc(plan, 1, base, factor, b0, b1, h, rng);
  }
  const double mean = total / trials;
  const double expected =
      model::nhpp_expected_events(base, factor, b0, b1, h);
  EXPECT_NEAR(mean, expected, 0.1 * expected);
}

TEST(Generators, DomainKillListsWholeDomain) {
  const rep::ReplicaLayout layout{8, 2};
  const net::Topology topo =
      layout.make_topology_domains(4, 3, /*domain_aware=*/false);
  fault::FaultPlan plan;
  fault::kill_domain_at(plan, topo, 0, 2.5e-3);
  ASSERT_FALSE(plan.timed_crashes().empty());
  for (const auto& tc : plan.timed_crashes()) {
    EXPECT_EQ(topo.domain_of(tc.world_rank), 0);
    EXPECT_EQ(tc.at, 2.5e-3);  // one correlated instant, not a cascade
  }
  EXPECT_EQ(plan.timed_crashes().size(),
            topo.processes_in_domain(0).size());
}

}  // namespace
}  // namespace repmpi::apps
