// Integration tests for the MiniGhost, GTC and AMG proxies: numerical
// sanity, exact cross-mode agreement (native == replicated == intra), crash
// resilience, and the per-app efficiency shapes of Fig. 6.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>

#include "apps/amg.hpp"
#include "apps/hpccg.hpp"
#include "apps/gtc.hpp"
#include "apps/minighost.hpp"
#include "apps/runner.hpp"

namespace repmpi::apps {
namespace {

// --- MiniGhost ---------------------------------------------------------------

struct MgRun {
  RunResult run;
  std::map<int, MiniGhostResult> per_rank;
};

MgRun run_minighost(RunMode mode, int logical, MiniGhostParams p,
                    fault::FaultPlan* faults = nullptr) {
  RunConfig cfg;
  cfg.mode = mode;
  cfg.num_logical = logical;
  cfg.faults = faults;
  cfg.verify_consistency = true;
  MgRun out;
  out.run = cfg.faults || true
                ? run_app(cfg,
                          [&](AppContext& ctx) {
                            out.per_rank[ctx.proc.world_rank()] =
                                minighost(ctx, p);
                          })
                : RunResult{};
  return out;
}

TEST(MiniGhost, StencilConservesMassApproximately) {
  MiniGhostParams p;
  p.nx = p.ny = 8;
  p.nz = 8;
  p.steps = 4;
  const auto run = run_minighost(RunMode::kNative, 4, p);
  const auto& r = run.per_rank.at(0);
  // The averaging stencil keeps values within the initial range; the global
  // sum stays of the same magnitude (edges lose a little).
  const double cells = 8.0 * 8.0 * 8.0 * 4;
  EXPECT_GT(r.final_sum, 0.5 * cells);  // initial mean = 1.0
  EXPECT_LT(r.final_sum, 1.5 * cells);
}

TEST(MiniGhost, ModesAgreeBitwise) {
  MiniGhostParams p;
  p.nx = p.ny = 8;
  p.nz = 8;
  p.steps = 4;
  const auto nat = run_minighost(RunMode::kNative, 4, p);
  const auto rep = run_minighost(RunMode::kReplicated, 4, p);
  const auto intra = run_minighost(RunMode::kIntra, 4, p);
  const double expect = nat.per_rank.at(0).final_sum;
  for (const auto& [rank, r] : rep.per_rank)
    EXPECT_DOUBLE_EQ(r.final_sum, expect);
  for (const auto& [rank, r] : intra.per_rank)
    EXPECT_DOUBLE_EQ(r.final_sum, expect);
}

TEST(MiniGhost, EfficiencyShapeMarginalGain) {
  // Fig. 6d: only GRID_SUM is shared, so E(intra) barely exceeds 0.5.
  // (The grid must be large enough that the section's fixed synchronization
  // cost does not swamp the 2.5 ns/cell it saves — at bench scale it does
  // not.)
  MiniGhostParams p;
  p.nx = p.ny = 32;
  p.nz = 16;
  p.steps = 3;
  const double tn = run_minighost(RunMode::kNative, 4, p).run.wallclock;
  const double tr = run_minighost(RunMode::kReplicated, 4, p).run.wallclock;
  const double ti = run_minighost(RunMode::kIntra, 4, p).run.wallclock;
  const double e_rep = efficiency_fixed_problem(tn, tr, 2);
  const double e_intra = efficiency_fixed_problem(tn, ti, 2);
  EXPECT_NEAR(e_rep, 0.5, 0.05);
  EXPECT_GT(e_intra, e_rep - 0.01);
  EXPECT_LT(e_intra, 0.60);
}

// --- GTC ---------------------------------------------------------------------

struct GtcRun {
  RunResult run;
  std::map<int, GtcResult> per_rank;
};

GtcRun run_gtc(RunMode mode, int logical, GtcParams p,
               fault::FaultPlan* faults = nullptr) {
  RunConfig cfg;
  cfg.mode = mode;
  cfg.num_logical = logical;
  cfg.faults = faults;
  cfg.verify_consistency = true;
  GtcRun out;
  out.run = run_app(cfg, [&](AppContext& ctx) {
    out.per_rank[ctx.proc.world_rank()] = gtc(ctx, p);
  });
  return out;
}

TEST(Gtc, ChargeConservedGlobally) {
  GtcParams p;
  p.particles_per_rank = 2000;
  p.grid = 16;
  p.steps = 2;
  const auto run = run_gtc(RunMode::kNative, 4, p);
  const auto& r = run.per_rank.at(0);
  // 1 unit of charge per particle, slightly redistributed by the boundary
  // blending; the global total stays near particles count.
  EXPECT_NEAR(r.total_charge, 4 * 2000.0, 4 * 2000.0 * 0.2);
  EXPECT_GT(r.kinetic_energy, 0.0);
}

TEST(Gtc, ModesAgreeBitwise) {
  GtcParams p;
  p.particles_per_rank = 1500;
  p.grid = 16;
  p.steps = 3;
  const auto nat = run_gtc(RunMode::kNative, 3, p);
  const auto rep = run_gtc(RunMode::kReplicated, 3, p);
  const auto intra = run_gtc(RunMode::kIntra, 3, p);
  const auto& expect = nat.per_rank.at(0);
  for (const auto& [rank, r] : rep.per_rank) {
    EXPECT_DOUBLE_EQ(r.kinetic_energy, expect.kinetic_energy);
    EXPECT_DOUBLE_EQ(r.total_charge, expect.total_charge);
  }
  for (const auto& [rank, r] : intra.per_rank) {
    EXPECT_DOUBLE_EQ(r.kinetic_energy, expect.kinetic_energy);
    EXPECT_DOUBLE_EQ(r.total_charge, expect.total_charge);
  }
}

TEST(Gtc, IntraSurvivesCrashDuringPush) {
  GtcParams p;
  p.particles_per_rank = 1500;
  p.grid = 16;
  p.steps = 3;
  const auto nat = run_gtc(RunMode::kNative, 3, p);

  fault::FaultPlan plan;
  // World rank 4 = logical 1, lane 1; die mid-update while pushing (the
  // inout case: survivors must roll back partial particle updates).
  plan.add({.world_rank = 4, .site = fault::CrashSite::kBetweenArgSends,
            .nth = 9, .detail = 2});
  const auto intra = run_gtc(RunMode::kIntra, 3, p, &plan);
  EXPECT_EQ(intra.run.ranks_crashed, 1);
  const auto& expect = nat.per_rank.at(0);
  for (const auto& [rank, r] : intra.per_rank) {
    EXPECT_DOUBLE_EQ(r.kinetic_energy, expect.kinetic_energy) << rank;
    EXPECT_DOUBLE_EQ(r.total_charge, expect.total_charge) << rank;
  }
}

TEST(Gtc, InOutCopiesAreCharged) {
  GtcParams p;
  p.particles_per_rank = 1500;
  p.grid = 16;
  p.steps = 2;
  const auto intra = run_gtc(RunMode::kIntra, 2, p);
  EXPECT_GT(intra.run.intra_total.inout_copy_time, 0.0);
  // Paper: ~6% on the affected tasks; loosely bounded here.
  EXPECT_LT(intra.run.intra_total.inout_copy_time,
            0.25 * intra.run.intra_total.section_time);
}

// --- AMG ---------------------------------------------------------------------

struct AmgRun {
  RunResult run;
  std::map<int, AmgResult> per_rank;
};

AmgRun run_amg(RunMode mode, int logical, AmgParams p,
               fault::FaultPlan* faults = nullptr) {
  RunConfig cfg;
  cfg.mode = mode;
  cfg.num_logical = logical;
  cfg.faults = faults;
  cfg.verify_consistency = true;
  AmgRun out;
  out.run = run_app(cfg, [&](AppContext& ctx) {
    out.per_rank[ctx.proc.world_rank()] = amg(ctx, p);
  });
  return out;
}

TEST(Amg, PcgReducesResidual) {
  AmgParams p;
  p.nx = p.ny = p.nz = 8;
  p.levels = 2;
  p.iterations = 8;
  const auto run = run_amg(RunMode::kNative, 3, p);
  const auto& r = run.per_rank.at(0);
  EXPECT_GT(r.rnorm0, 0.0);
  EXPECT_LT(r.rnorm, 1e-4 * r.rnorm0);
}

TEST(Amg, GmresReducesResidual) {
  AmgParams p;
  p.stencil = kernels::Stencil::k7pt;
  p.solver = AmgParams::Solver::kGMRES;
  p.nx = p.ny = p.nz = 8;
  p.levels = 2;
  p.iterations = 2;
  p.gmres_restart = 8;
  const auto run = run_amg(RunMode::kNative, 3, p);
  const auto& r = run.per_rank.at(0);
  EXPECT_GT(r.rnorm0, 0.0);
  EXPECT_LT(r.rnorm, 1e-3 * r.rnorm0);
}

TEST(Amg, ModesAgreeBitwisePcg) {
  AmgParams p;
  p.nx = p.ny = p.nz = 8;
  p.levels = 2;
  p.iterations = 4;
  const auto nat = run_amg(RunMode::kNative, 3, p);
  const auto rep = run_amg(RunMode::kReplicated, 3, p);
  const auto intra = run_amg(RunMode::kIntra, 3, p);
  const double expect = nat.per_rank.at(0).rnorm;
  for (const auto& [rank, r] : rep.per_rank)
    EXPECT_DOUBLE_EQ(r.rnorm, expect);
  for (const auto& [rank, r] : intra.per_rank)
    EXPECT_DOUBLE_EQ(r.rnorm, expect);
}

TEST(Amg, ModesAgreeBitwiseGmres) {
  AmgParams p;
  p.stencil = kernels::Stencil::k7pt;
  p.solver = AmgParams::Solver::kGMRES;
  p.nx = p.ny = p.nz = 8;
  p.levels = 2;
  p.iterations = 2;
  p.gmres_restart = 6;
  const auto nat = run_amg(RunMode::kNative, 3, p);
  const auto intra = run_amg(RunMode::kIntra, 3, p);
  const double expect = nat.per_rank.at(0).rnorm;
  for (const auto& [rank, r] : intra.per_rank)
    EXPECT_DOUBLE_EQ(r.rnorm, expect);
}

TEST(Amg, IntraSurvivesCrashInSmoother) {
  AmgParams p;
  p.nx = p.ny = p.nz = 8;
  p.levels = 2;
  p.iterations = 4;
  const auto nat = run_amg(RunMode::kNative, 3, p);

  fault::FaultPlan plan;
  plan.add({.world_rank = 5, .site = fault::CrashSite::kAfterTaskExec,
            .nth = 11});
  const auto intra = run_amg(RunMode::kIntra, 3, p, &plan);
  EXPECT_EQ(intra.run.ranks_crashed, 1);
  const double expect = nat.per_rank.at(0).rnorm;
  for (const auto& [rank, r] : intra.per_rank)
    EXPECT_DOUBLE_EQ(r.rnorm, expect) << rank;
}

// --- Replication protocol state ----------------------------------------------

TEST(ProtocolState, FailureFreeRunsEndWithEverySendLogDrained) {
  // Every message reaches every receiver lane, so each floor passes each
  // logged seq and the trimming rule drops the whole log by the end.
  HpccgParams hp;
  hp.nx = hp.ny = hp.nz = 6;
  hp.iterations = 4;
  RunConfig cfg;
  cfg.mode = RunMode::kReplicated;
  cfg.num_logical = 4;
  const RunResult hpccg_run =
      run_app(cfg, [&](AppContext& ctx) { hpccg(ctx, hp); });
  AmgParams ap;
  ap.nx = ap.ny = ap.nz = 8;
  ap.levels = 2;
  ap.iterations = 4;
  GtcParams gp;
  gp.particles_per_rank = 1500;
  gp.grid = 16;
  gp.steps = 3;
  MiniGhostParams mp;
  mp.nx = mp.ny = mp.nz = 8;
  mp.steps = 3;
  struct AppRun {
    std::string app;
    int logical;
    RunResult run;
  };
  const AppRun runs[] = {
      {"hpccg", 4, hpccg_run},
      {"amg", 3, run_amg(RunMode::kReplicated, 3, ap).run},
      {"gtc", 3, run_gtc(RunMode::kReplicated, 3, gp).run},
      {"minighost", 4, run_minighost(RunMode::kReplicated, 4, mp).run}};
  for (const AppRun& r : runs) {
    EXPECT_EQ(r.run.ranks_finished, 2 * r.logical) << r.app;
    EXPECT_GT(r.run.send_log_high_water, 0u) << r.app;
    EXPECT_EQ(r.run.send_log_live, 0u) << r.app;
    EXPECT_EQ(r.run.replayed_sends, 0u) << r.app;
  }
}

TEST(ProtocolState, FailureFreeRunsHoldNoStreamRecord) {
  // Apps tag each halo exchange afresh and every collective call takes a
  // new tag, so each (source, tag) stream carries one message: SDR AMG
  // opens one receive stream per physical message. Each stream settles to
  // one bit once its message is delivered and its send log closed, so a
  // failure-free run ends holding no stream record in either table.
  AmgParams ap;
  ap.nx = ap.ny = ap.nz = 8;
  ap.levels = 2;
  ap.iterations = 4;
  const RunResult sdr = run_amg(RunMode::kReplicated, 3, ap).run;
  EXPECT_GT(sdr.net_messages, 0u);
  EXPECT_EQ(sdr.recv_streams, sdr.net_messages);
  EXPECT_EQ(run_amg(RunMode::kNative, 3, ap).run.recv_streams, 0u);

  HpccgParams hp;
  hp.nx = hp.ny = hp.nz = 6;
  hp.iterations = 4;
  GtcParams gp;
  gp.particles_per_rank = 1500;
  gp.grid = 16;
  gp.steps = 3;
  MiniGhostParams mp;
  mp.nx = mp.ny = mp.nz = 8;
  mp.steps = 3;
  struct App {
    std::string name;
    int logical;
    AppMain main;
  };
  const App apps[] = {
      {"hpccg", 4, [&](AppContext& ctx) { hpccg(ctx, hp); }},
      {"amg", 3, [&](AppContext& ctx) { amg(ctx, ap); }},
      {"gtc", 3, [&](AppContext& ctx) { gtc(ctx, gp); }},
      {"minighost", 4, [&](AppContext& ctx) { minighost(ctx, mp); }}};
  for (RunMode mode : {RunMode::kReplicated, RunMode::kIntra}) {
    for (int degree : {2, 3}) {
      for (const App& app : apps) {
        RunConfig cfg;
        cfg.mode = mode;
        cfg.num_logical = app.logical;
        cfg.degree = degree;
        const RunResult r = run_app(cfg, app.main);
        const std::string at = app.name + " " + to_string(mode) +
                               " degree " + std::to_string(degree);
        EXPECT_EQ(r.ranks_finished, degree * app.logical) << at;
        EXPECT_GT(r.recv_streams, 0u) << at;
        EXPECT_EQ(r.stream_records_held, 0u) << at;
      }
    }
  }
}

}  // namespace
}  // namespace repmpi::apps
