// Determinism regression: an identical RNG seed must produce bit-identical
// virtual wall-clock and IntraStats across two full apps::run_app runs, for
// each of kNative / kReplicated / kIntra. The app below deliberately draws
// from the per-logical-rank stream (AppContext::rng) so the seed shapes the
// run: a different seed must produce a different virtual wall-clock.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "apps/hpccg.hpp"
#include "apps/runner.hpp"

namespace repmpi::apps {
namespace {

RunResult run_once(RunMode mode, std::uint64_t seed) {
  RunConfig cfg;
  cfg.mode = mode;
  cfg.num_logical = 4;
  cfg.seed = seed;
  HpccgParams p;
  p.nx = p.ny = p.nz = 10;
  p.iterations = 2;
  p.intra_ddot = true;
  p.intra_sparsemv = true;
  return run_app(cfg, [&](AppContext& ctx) {
    // Seed-dependent warm-up phase: replicas of a logical rank draw the
    // same values (send-determinism), but the cost depends on the seed.
    const double jitter = ctx.rng.uniform(0.5, 1.5);
    {
      mpi::ScopedPhase sp(ctx.proc, "seeded_warmup");
      ctx.proc.compute({1e4 * jitter, 8e4 * jitter});
    }
    hpccg(ctx, p);
  });
}

/// Bit-level equality for virtual times: == would accept -0.0 vs 0.0 and
/// hide representation drift.
void expect_bit_identical(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_identical(const RunResult& a, const RunResult& b) {
  expect_bit_identical(a.wallclock, b.wallclock, "wallclock");

  ASSERT_EQ(a.phase_max.size(), b.phase_max.size());
  for (const auto& [phase, t] : a.phase_max) {
    ASSERT_EQ(b.phase_max.count(phase), 1u) << phase;
    expect_bit_identical(t, b.phase_max.at(phase), phase.c_str());
  }

  const intra::IntraStats& x = a.intra_total;
  const intra::IntraStats& y = b.intra_total;
  expect_bit_identical(x.section_time, y.section_time, "section_time");
  expect_bit_identical(x.update_tail_time, y.update_tail_time,
                       "update_tail_time");
  expect_bit_identical(x.inout_copy_time, y.inout_copy_time,
                       "inout_copy_time");
  EXPECT_EQ(x.sections, y.sections);
  EXPECT_EQ(x.tasks_executed, y.tasks_executed);
  EXPECT_EQ(x.tasks_received, y.tasks_received);
  EXPECT_EQ(x.tasks_reexecuted, y.tasks_reexecuted);
  EXPECT_EQ(x.update_bytes_sent, y.update_bytes_sent);

  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.ranks_finished, b.ranks_finished);
  EXPECT_EQ(a.ranks_crashed, b.ranks_crashed);
}

class Determinism : public ::testing::TestWithParam<RunMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, Determinism,
                         ::testing::Values(RunMode::kNative,
                                           RunMode::kReplicated,
                                           RunMode::kIntra),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST_P(Determinism, SameSeedBitIdenticalAcrossRuns) {
  const RunResult a = run_once(GetParam(), 0xfeedULL);
  const RunResult b = run_once(GetParam(), 0xfeedULL);
  expect_identical(a, b);
}

TEST_P(Determinism, DifferentSeedChangesWallclock) {
  const RunResult a = run_once(GetParam(), 1);
  const RunResult b = run_once(GetParam(), 2);
  EXPECT_NE(std::bit_cast<std::uint64_t>(a.wallclock),
            std::bit_cast<std::uint64_t>(b.wallclock));
}

}  // namespace
}  // namespace repmpi::apps
