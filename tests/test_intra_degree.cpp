// Replication degree > 2 coverage for the intra runtime (runtime.cpp):
// work sharing across three lanes, and the local re-execution path after a
// mid-update crash — survivors can hold *different* partial-update views of
// a lost task, and each must roll back its inout pre-images and re-execute
// locally (the degree>2 alternative the paper notes to Algorithm 1's
// re-scheduling) so the section still exits with identical replica state;
// and the update path's payload budget: one pooled block per shipped
// output, none left held once the section is over.

#include <gtest/gtest.h>

#include <map>
#include <span>
#include <utility>
#include <vector>

#include "fault/failure.hpp"
#include "intra/runtime.hpp"
#include "rep_test_harness.hpp"
#include "support/payload.hpp"

namespace repmpi::intra {
namespace {

using repmpi::testing::RepFixture;

constexpr int kTasks = 6;
constexpr int kElemsPerTask = 2;

/// One section of kTasks non-idempotent inout tasks (x := 2x + 1, so
/// re-executing from an updated value instead of the pre-image yields a
/// detectably wrong result), shared across all alive lanes.
void run_one_section(Runtime& rt, std::vector<double>& v) {
  Section section(rt);
  const int id = rt.register_task(
      [](TaskArgs& a) -> net::ComputeCost {
        for (double& x : a.get<double>(0)) x = 2.0 * x + 1.0;
        return {16.0, 64.0};
      },
      {{ArgTag::kInOut, sizeof(double)}});
  for (int t = 0; t < kTasks; ++t) {
    rt.launch(id, {Binding::of(std::span<double>(v).subspan(
                      static_cast<std::size_t>(t) * kElemsPerTask,
                      kElemsPerTask))});
  }
}

TEST(IntraDegree3, SharesTasksAcrossThreeLanes) {
  RepFixture f(1, 3);
  std::map<int, std::vector<double>> out;
  std::map<int, std::int64_t> executed;
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared,
                      .verify_consistency = true});
    std::vector<double> v(kTasks * kElemsPerTask, 1.0);
    run_one_section(rt, v);
    out[proc.world_rank()] = v;
    executed[proc.world_rank()] = rt.stats().tasks_executed;
  });
  ASSERT_EQ(out.size(), 3u);
  for (const auto& [world, v] : out) {
    for (const double x : v) EXPECT_DOUBLE_EQ(x, 3.0) << "world " << world;
  }
  // 6 tasks over 3 lanes: each lane computed exactly 2, none re-executed.
  for (const auto& [world, n] : executed) EXPECT_EQ(n, 2) << world;
}

TEST(IntraDegree3, PartialUpdateRollsBackAndReexecutesLocally) {
  // The Fig.-2 hazard at degree 3: lane 1 executes its first task and dies
  // between its two argument sends, so the survivors have already *applied*
  // the task's inout update when the second argument's receive fails. Each
  // survivor must restore the inout pre-image before re-executing locally;
  // re-executing x := 2x + 1 from the updated value instead would yield
  // 4x + 3 and a replica divergence, which verify_consistency would trap.
  RepFixture f(1, 3);
  fault::FaultPlan plan;
  plan.add({.world_rank = 1,
            .site = fault::CrashSite::kBetweenArgSends,
            .nth = 1,
            .detail = 1});  // crash before this task's *second* arg send
  std::map<int, std::vector<double>> out;
  std::map<int, std::vector<double>> sums;
  std::map<int, std::int64_t> reexecuted;
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared,
                      .verify_consistency = true,
                      .faults = &plan});
    std::vector<double> v(kTasks * kElemsPerTask, 1.0);
    std::vector<double> s(kTasks, 0.0);
    {
      Section section(rt);
      const int id = rt.register_task(
          [](TaskArgs& a) -> net::ComputeCost {
            double acc = 0;
            for (double& x : a.get<double>(0)) {
              x = 2.0 * x + 1.0;
              acc += x;
            }
            a.scalar<double>(1) = acc;
            return {16.0, 64.0};
          },
          {{ArgTag::kInOut, sizeof(double)}, {ArgTag::kOut, sizeof(double)}});
      for (int t = 0; t < kTasks; ++t) {
        rt.launch(id, {Binding::of(std::span<double>(v).subspan(
                           static_cast<std::size_t>(t) * kElemsPerTask,
                           kElemsPerTask)),
                       Binding::scalar(s[static_cast<std::size_t>(t)])});
      }
    }
    out[proc.world_rank()] = v;
    sums[proc.world_rank()] = s;
    reexecuted[proc.world_rank()] = rt.stats().tasks_reexecuted;
  });
  EXPECT_EQ(plan.fired(), 1);
  ASSERT_EQ(out.size(), 2u);  // lanes 0 and 2 survive
  ASSERT_EQ(out.count(0), 1u);
  ASSERT_EQ(out.count(2), 1u);
  for (const auto& [world, v] : out) {
    for (const double x : v) EXPECT_DOUBLE_EQ(x, 3.0) << "world " << world;
  }
  for (const auto& [world, s] : sums) {
    for (const double x : s)
      EXPECT_DOUBLE_EQ(x, 3.0 * kElemsPerTask) << "world " << world;
  }
  // Each survivor re-executed the partially-updated task plus the dead
  // lane's never-executed one.
  for (const auto& [world, n] : reexecuted) EXPECT_EQ(n, 2) << world;
}

/// Pool statistics of this thread's payload blocks: as the first lane
/// enters one degree-3 shared section of kOutTasks tasks, and as the last
/// lane leaves it (its runtime, and so its task records, still alive). Each
/// task writes kOutElems doubles through one argument tagged `tag`, so every
/// (task, arg) output ships in a pooled heap payload.
constexpr int kOutTasks = 8;
constexpr std::size_t kOutElems = 16;

std::pair<support::Payload::PoolStats, support::Payload::PoolStats>
pool_stats_around_one_section(ArgTag tag) {
  RepFixture f(1, 3);
  support::Payload::PoolStats before, after;
  int entered = 0, left = 0;
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared});
    std::vector<double> v(kOutTasks * kOutElems, 0.0);
    if (entered++ == 0) before = support::Payload::pool_stats();
    {
      Section section(rt);
      const int id = rt.register_task(
          [](TaskArgs& a) -> net::ComputeCost {
            for (double& x : a.get<double>(0)) x = 1.0;
            return {16.0, 128.0};
          },
          {{tag, sizeof(double)}});
      for (int t = 0; t < kOutTasks; ++t) {
        rt.launch(id, {Binding::of(std::span<double>(v).subspan(
                          static_cast<std::size_t>(t) * kOutElems,
                          kOutElems))});
      }
    }
    if (++left == 3) after = support::Payload::pool_stats();
    for (const double x : v) EXPECT_EQ(x, 1.0) << "world " << proc.world_rank();
  });
  return {before, after};
}

TEST(IntraDegree3, EachOutputShipsInOnePayloadFreedByTheReceiver) {
  // One payload per (task, arg) output, shared by both destination lanes,
  // so the section acquires kOutTasks blocks and not twice that. The
  // receivers keep none of them past the section: an out update lands in
  // its binding on arrival, and an inout update's payload is released as
  // collect_update applies it. So every block is back in the pool when the
  // last lane leaves the section. The first run warms the pool, so the
  // second one's blocks are all reused.
  for (const ArgTag tag : {ArgTag::kOut, ArgTag::kInOut}) {
    pool_stats_around_one_section(tag);
    const auto [before, after] = pool_stats_around_one_section(tag);
    EXPECT_EQ(after.blocks_allocated + after.blocks_reused -
                  (before.blocks_allocated + before.blocks_reused),
              static_cast<std::uint64_t>(kOutTasks))
        << (tag == ArgTag::kOut ? "out" : "inout");
    EXPECT_EQ(after.pooled_now, before.pooled_now)
        << (tag == ArgTag::kOut ? "out" : "inout");
  }
}

TEST(IntraDegree3, LaterSectionsShareAmongSurvivors) {
  // Lane 2 dies at the entry of the second section. The remaining two lanes
  // must finish that section (re-executing the dead lane's share) and keep
  // sharing work in the third section.
  RepFixture f(1, 3);
  fault::FaultPlan plan;
  plan.add({.world_rank = 2,
            .site = fault::CrashSite::kSectionEntry,
            .nth = 2});
  std::map<int, std::vector<double>> out;
  std::map<int, IntraStats> stats;
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared,
                      .verify_consistency = true,
                      .faults = &plan});
    std::vector<double> v(kTasks * kElemsPerTask, 1.0);
    for (int s = 0; s < 3; ++s) run_one_section(rt, v);
    out[proc.world_rank()] = v;
    stats[proc.world_rank()] = rt.stats();
  });
  EXPECT_EQ(plan.fired(), 1);
  ASSERT_EQ(out.size(), 2u);  // lanes 0 and 1 survive
  // Three applications of x := 2x + 1 from 1.0: 1 -> 3 -> 7 -> 15.
  for (const auto& [world, v] : out) {
    for (const double x : v) EXPECT_DOUBLE_EQ(x, 15.0) << "world " << world;
  }
  for (const auto& [world, st] : stats) {
    EXPECT_EQ(st.sections, 3) << world;
    // Section 1: 2 of 6 tasks; sections 2 and 3: 3 of 6 each across two
    // lanes, plus section 2's share of the dead lane's tasks re-executed.
    EXPECT_GE(st.tasks_executed, 8) << world;
    EXPECT_GE(st.tasks_reexecuted, 1) << world;
  }
}

TEST(IntraDegree4, SharedSectionMatchesSerialReference) {
  // Degree 4, two logical ranks, weighted scheduling: every lane of every
  // logical rank must converge to the serial reference.
  RepFixture f(2, 4);
  std::map<int, std::vector<double>> out;
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    Runtime rt(comm, {.mode = Runtime::Mode::kShared,
                      .policy = SchedulePolicy::kWeighted,
                      .verify_consistency = true});
    std::vector<double> v(kTasks * kElemsPerTask,
                          1.0 + comm.rank());
    {
      Section section(rt);
      const int id = rt.register_task(
          [](TaskArgs& a) -> net::ComputeCost {
            for (double& x : a.get<double>(0)) x = 3.0 * x - 1.0;
            return {16.0, 64.0};
          },
          {{ArgTag::kInOut, sizeof(double)}});
      for (int t = 0; t < kTasks; ++t) {
        rt.launch(id,
                  {Binding::of(std::span<double>(v).subspan(
                      static_cast<std::size_t>(t) * kElemsPerTask,
                      kElemsPerTask))},
                  /*weight=*/1.0 + t);
      }
    }
    out[proc.world_rank()] = v;
  });
  ASSERT_EQ(out.size(), 8u);
  for (const auto& [world, v] : out) {
    const double x0 = 1.0 + (world % 2);  // logical rank of this world rank
    for (const double x : v)
      EXPECT_DOUBLE_EQ(x, 3.0 * x0 - 1.0) << "world " << world;
  }
}

}  // namespace
}  // namespace repmpi::intra
