// Unit tests for the application harness (run_app semantics, phase
// accounting, efficiency helpers) and the kernel-section wrappers (their
// results must equal the direct kernels in every mode).

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <numeric>
#include <vector>

#include "apps/kernel_sections.hpp"
#include "apps/runner.hpp"
#include "kernels/stencil.hpp"
#include "kernels/vector_ops.hpp"

namespace repmpi::apps {
namespace {

TEST(Runner, ModeStrings) {
  EXPECT_STREQ(to_string(RunMode::kNative), "native");
  EXPECT_STREQ(paper_label(RunMode::kNative), "Open MPI");
  EXPECT_STREQ(paper_label(RunMode::kReplicated), "SDR-MPI");
  EXPECT_STREQ(paper_label(RunMode::kIntra), "intra");
  EXPECT_STREQ(paper_label(RunMode::kReplicatedVerify), "SDR-MPI+SDC");
}

TEST(Runner, PhysicalCountFollowsMode) {
  RunConfig cfg;
  cfg.num_logical = 6;
  cfg.mode = RunMode::kNative;
  EXPECT_EQ(cfg.num_physical(), 6);
  cfg.mode = RunMode::kIntra;
  EXPECT_EQ(cfg.num_physical(), 12);
  cfg.degree = 3;
  EXPECT_EQ(cfg.num_physical(), 18);
}

TEST(Runner, RuntimeModeMapping) {
  RunConfig cfg;
  cfg.mode = RunMode::kIntra;
  EXPECT_EQ(cfg.runtime_mode(), intra::Runtime::Mode::kShared);
  cfg.mode = RunMode::kReplicated;
  EXPECT_EQ(cfg.runtime_mode(), intra::Runtime::Mode::kAllLocal);
  cfg.mode = RunMode::kReplicatedVerify;
  EXPECT_EQ(cfg.runtime_mode(), intra::Runtime::Mode::kDuplicateVerify);
}

TEST(Runner, WallclockIsMaxOverRanks) {
  RunConfig cfg;
  cfg.num_logical = 4;
  const RunResult r = run_app(cfg, [](AppContext& ctx) {
    ctx.proc.elapse(0.1 * (ctx.rank() + 1));
  });
  EXPECT_NEAR(r.wallclock, 0.4, 1e-9);
  EXPECT_EQ(r.ranks_finished, 4);
  EXPECT_EQ(r.ranks_crashed, 0);
}

TEST(Runner, PhaseMaxAndAvg) {
  RunConfig cfg;
  cfg.num_logical = 4;
  const RunResult r = run_app(cfg, [](AppContext& ctx) {
    mpi::ScopedPhase sp(ctx.proc, "work");
    ctx.proc.elapse(0.1 * (ctx.rank() + 1));
  });
  EXPECT_NEAR(r.phase_max.at("work"), 0.4, 1e-9);
  EXPECT_NEAR(r.phase_avg.at("work"), 0.25, 1e-9);
  EXPECT_DOUBLE_EQ(r.phase("missing"), 0.0);
}

TEST(Runner, RngIsPerLogicalRank) {
  // Replicas of the same logical rank must draw identical streams.
  RunConfig cfg;
  cfg.mode = RunMode::kReplicated;
  cfg.num_logical = 3;
  std::map<int, double> draws;
  run_app(cfg, [&](AppContext& ctx) {
    draws[ctx.proc.world_rank()] = ctx.rng.next_double();
  });
  for (int l = 0; l < 3; ++l) {
    EXPECT_DOUBLE_EQ(draws.at(l), draws.at(l + 3)) << "logical " << l;
  }
  EXPECT_NE(draws.at(0), draws.at(1));
}

TEST(Runner, EfficiencyHelpers) {
  EXPECT_DOUBLE_EQ(efficiency_fixed_problem(1.0, 1.0, 2), 0.5);
  EXPECT_DOUBLE_EQ(efficiency_fixed_problem(1.0, 0.8, 2), 0.625);
}

class SectionWrappers : public ::testing::TestWithParam<RunMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, SectionWrappers,
                         ::testing::Values(RunMode::kNative,
                                           RunMode::kReplicated,
                                           RunMode::kIntra),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST_P(SectionWrappers, WaxpbyMatchesDirectKernel) {
  RunConfig cfg;
  cfg.mode = GetParam();
  cfg.num_logical = 2;
  std::map<int, std::vector<double>> results;
  run_app(cfg, [&](AppContext& ctx) {
    std::vector<double> x(64), y(64), w(64, 0.0);
    for (std::size_t i = 0; i < 64; ++i) {
      x[i] = 0.5 * static_cast<double>(i);
      y[i] = 2.0 - 0.25 * static_cast<double>(i);
    }
    waxpby_section(ctx, "waxpby", 3.0, x, -1.0, y, w, /*enabled=*/true);
    results[ctx.proc.world_rank()] = w;
  });
  std::vector<double> expect(64);
  for (std::size_t i = 0; i < 64; ++i)
    expect[i] = 3.0 * (0.5 * static_cast<double>(i)) -
                (2.0 - 0.25 * static_cast<double>(i));
  for (const auto& [rank, w] : results) EXPECT_EQ(w, expect) << rank;
}

TEST_P(SectionWrappers, DdotMatchesDirectKernel) {
  RunConfig cfg;
  cfg.mode = GetParam();
  cfg.num_logical = 2;
  std::map<int, double> results;
  run_app(cfg, [&](AppContext& ctx) {
    std::vector<double> x(100), y(100);
    for (std::size_t i = 0; i < 100; ++i) {
      x[i] = static_cast<double>(i);
      y[i] = 1.0 / (1.0 + static_cast<double>(i));
    }
    results[ctx.proc.world_rank()] =
        ddot_section(ctx, "ddot", x, y, /*enabled=*/true);
  });
  double expect = 0;
  for (std::size_t i = 0; i < 100; ++i)
    expect += static_cast<double>(i) / (1.0 + static_cast<double>(i));
  for (const auto& [rank, d] : results) EXPECT_DOUBLE_EQ(d, expect) << rank;
}

TEST_P(SectionWrappers, GridSumMatchesDirectKernel) {
  RunConfig cfg;
  cfg.mode = GetParam();
  cfg.num_logical = 2;
  std::map<int, double> results;
  run_app(cfg, [&](AppContext& ctx) {
    kernels::Grid3D g(4, 4, 6);
    for (int z = 0; z < 6; ++z)
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x)
          g.at(x, y, z) = static_cast<double>(x + y + z);
    results[ctx.proc.world_rank()] =
        grid_sum_section(ctx, "gridsum", g, /*enabled=*/true);
  });
  double expect = 0;
  for (int z = 0; z < 6; ++z)
    for (int y = 0; y < 4; ++y)
      for (int x = 0; x < 4; ++x) expect += x + y + z;
  for (const auto& [rank, s] : results) EXPECT_DOUBLE_EQ(s, expect) << rank;
}

TEST(SectionWrappers, DisabledPathEqualsEnabledPath) {
  auto run_mode = [](bool enabled) {
    RunConfig cfg;
    cfg.num_logical = 2;
    std::vector<double> got;
    run_app(cfg, [&](AppContext& ctx) {
      std::vector<double> x(32, 1.5), y(32, 0.5), w(32, 0.0);
      waxpby_section(ctx, "waxpby", 2.0, x, 4.0, y, w, enabled);
      if (ctx.proc.world_rank() == 0) got = w;
    });
    return got;
  };
  EXPECT_EQ(run_mode(true), run_mode(false));
}

TEST(SectionWrappers, TimingIdenticalAcrossNativePaths) {
  // In native mode the section path and the direct path must charge the
  // same virtual time (the runtime adds no cost when not sharing).
  auto wallclock = [](bool enabled) {
    RunConfig cfg;
    cfg.num_logical = 2;
    return run_app(cfg, [&](AppContext& ctx) {
             std::vector<double> x(1 << 12, 1.0), y(1 << 12, 2.0),
                 w(1 << 12, 0.0);
             for (int r = 0; r < 5; ++r)
               waxpby_section(ctx, "waxpby", 1.0, x, 1.0, y, w, enabled);
           }).wallclock;
  };
  EXPECT_DOUBLE_EQ(wallclock(true), wallclock(false));
}

}  // namespace
}  // namespace repmpi::apps
