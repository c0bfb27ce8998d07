// Hostile-environment fault injection: timed crashes, same-instant crash
// sets, bursty SDC, plan validation, and the graceful both-replicas-lost
// path. The load-bearing properties:
//
//  * a logical rank losing EVERY replica terminates the run as a reported
//    job failure (RunResult::job_failed + time of death) — never a deadlock
//    and never the stuck-shard detector, including under the sharded engine;
//  * hostile scenarios (same-instant crash sets, bursty SDC) keep the
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

// Both replicas of two logical ranks die at one instant (a correlated
// failure that takes out two full replica sets). The run must land on the
// reported-failure path, with the same verdict at every shard count.
TEST(JobFailure, SameInstantPairLossesReportIdenticalFailure) {
  constexpr int kLogical = 8;
  const rep::ReplicaLayout layout{kLogical, 2};
  const double t_free = run_hpccg(replicated_cfg(kLogical)).wallclock;

  auto pair_loss = [&](int shards) {
    fault::FaultPlan plan;
    for (int logical : {2, 5})
      for (int lane = 0; lane < layout.degree; ++lane)
        plan.add_timed(layout.phys_rank(logical, lane), 0.4 * t_free);
    RunConfig cfg = replicated_cfg(kLogical, shards);
    cfg.faults = &plan;
    return run_hpccg(cfg);
  };
  const RunResult classic = pair_loss(0);
  const RunResult sharded = pair_loss(2);

  EXPECT_TRUE(classic.job_failed);
  EXPECT_GE(classic.job_failed_time, 0.4 * t_free);
  EXPECT_TRUE(classic.job_failed_logical == 2 ||
              classic.job_failed_logical == 5);
  EXPECT_TRUE(sharded.job_failed);
  EXPECT_EQ(sharded.job_failed_logical, classic.job_failed_logical);
  EXPECT_EQ(sharded.job_failed_time, classic.job_failed_time);
}

// Lane 0 of the same two logical ranks dies at one instant: lane 1 covers
// both, and the job completes.
TEST(JobFailure, SameInstantLaneLossIsMasked) {
  constexpr int kLogical = 8;
  const rep::ReplicaLayout layout{kLogical, 2};
  RunConfig cfg = replicated_cfg(kLogical);
  const double t_free = run_hpccg(cfg).wallclock;

  fault::FaultPlan plan;
  for (int logical : {2, 5})
    plan.add_timed(layout.phys_rank(logical, 0), 0.4 * t_free);
  cfg.faults = &plan;
  const RunResult res = run_hpccg(cfg);

  EXPECT_FALSE(res.job_failed);
  EXPECT_EQ(res.ranks_crashed, 2);
  EXPECT_EQ(res.ranks_finished, 2 * kLogical - 2);
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

// --- Hostile scenarios keep the bit-identity contract ----------------------

/// Lane 1 of every logical rank dies at 0.2 ms, mid-run (the failure-free
/// runs below take about 0.5 ms): the survivable worst case, one
/// same-instant crash set taking out a whole replica plane.
fault::FaultPlan lane_one_loss(int num_logical) {
  fault::FaultPlan plan;
  const rep::ReplicaLayout layout{num_logical, 2};
  for (int logical = 0; logical < num_logical; ++logical)
    plan.add_timed(layout.phys_rank(logical, 1), 2e-4);
  return plan;
}

// One maximally hostile-but-survivable scenario: a replica plane lost at
// one instant plus bursty SDC, all from one seed. Simulated results must be
// bit-identical across shard counts.
TEST(HostileBitIdentity, IdenticalAcrossShardCounts) {
  constexpr int kLogical = 8;

  auto hostile_run = [&](int shards) {
    RunConfig cfg = replicated_cfg(kLogical, shards);
    cfg.mode = RunMode::kReplicatedVerify;  // exercises SDC detection too
    fault::FaultPlan plan = lane_one_loss(kLogical);
    support::Rng sdc_rng(0x5dc5eed5u);
    fault::generate_bursty_sdc(plan, 2 * kLogical, /*base_rate=*/2000.0,
                               /*burst_factor=*/8.0, 1e-4, 3e-4,
                               /*horizon=*/5e-4, sdc_rng);
    cfg.faults = &plan;
    return run_hpccg(cfg);
  };

  const RunResult r0 = hostile_run(0);
  const RunResult r2 = hostile_run(2);

  EXPECT_EQ(r0.ranks_crashed, kLogical);
  EXPECT_GT(r0.intra_total.sdc_injected, 0u);
  EXPECT_EQ(r0.wallclock, r2.wallclock);  // exact: bit-identity contract
  EXPECT_EQ(r0.net_messages, r2.net_messages);
  EXPECT_EQ(r0.net_bytes, r2.net_bytes);
  EXPECT_EQ(r0.ranks_crashed, r2.ranks_crashed);
  EXPECT_EQ(r0.intra_total.sdc_injected, r2.intra_total.sdc_injected);
  EXPECT_EQ(r0.intra_total.sdc_detected, r2.intra_total.sdc_detected);
  EXPECT_EQ(r0.intra_total.section_time, r2.intra_total.section_time);
  EXPECT_EQ(r0.job_failed, r2.job_failed);
}

// Under a same-instant crash set the executed-event count is equal at
// every shard count >= 1; the classic engine agrees on every simulated
// result but can execute a different number (see RunResult::events).
TEST(HostileBitIdentity, EventCountInvariantUnderCrashSet) {
  constexpr int kLogical = 8;

  auto hostile_run = [&](int shards) {
    RunConfig cfg = replicated_cfg(kLogical, shards);
    fault::FaultPlan plan = lane_one_loss(kLogical);
    cfg.faults = &plan;
    return run_hpccg(cfg);
  };

  const RunResult r0 = hostile_run(0);
  const RunResult r1 = hostile_run(1);
  const RunResult r2 = hostile_run(2);
  EXPECT_EQ(r0.ranks_crashed, kLogical);
  EXPECT_EQ(r1.events, r2.events);
  for (const RunResult* r : {&r1, &r2}) {
    EXPECT_EQ(r0.wallclock, r->wallclock);
    EXPECT_EQ(r0.net_messages, r->net_messages);
    EXPECT_EQ(r0.ranks_crashed, r->ranks_crashed);
  }
}

// --- Generators are pure functions of (seed, parameters) -------------------

TEST(Generators, DeterministicAcrossCalls) {
  // Same seed: the same plan, so the same corruptions land in a run.
  // Another seed: another draw.
  const auto draw = [](std::uint64_t seed, fault::FaultPlan& plan) {
    support::Rng rng(seed);
    return fault::generate_bursty_sdc(plan, 8, /*base_rate=*/500.0,
                                      /*burst_factor=*/8.0, 5e-4, 15e-4,
                                      /*horizon=*/4e-3, rng);
  };
  fault::FaultPlan a, b, c;
  const int planted_a = draw(42, a);
  EXPECT_GT(planted_a, 0);
  EXPECT_EQ(draw(42, b), planted_a);
  EXPECT_NE(draw(43, c), planted_a);

  RunConfig cfg = replicated_cfg(4);
  cfg.mode = RunMode::kReplicatedVerify;
  cfg.faults = &a;
  const RunResult ra = run_hpccg(cfg);
  cfg.faults = &b;
  const RunResult rb = run_hpccg(cfg);
  EXPECT_GT(ra.intra_total.sdc_injected, 0u);
  EXPECT_EQ(ra.intra_total.sdc_injected, rb.intra_total.sdc_injected);
  EXPECT_EQ(ra.intra_total.sdc_detected, rb.intra_total.sdc_detected);
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

}  // namespace
}  // namespace repmpi::apps
