// Replica-compute sharing (support/compute_cache.hpp): the FifoMemo
// template, the per-run ComputeCache/ComputeClient pair, the table-only
// row-gather fast path it rides on, and the end-to-end guarantees — cached
// and recomputed executions are bit-identical, the cache's decisions depend
// on the config alone, runs with a fault plan never share, and virtual-time
// results never depend on whether sharing was on.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "apps/amg.hpp"
#include "apps/gtc.hpp"
#include "apps/hpccg.hpp"
#include "apps/minighost.hpp"
#include "apps/runner.hpp"
#include "explicit_grid_matrix.hpp"
#include "kernels/sparse.hpp"
#include "kernels/stencil.hpp"
#include "support/compute_cache.hpp"
#include "support/rng.hpp"

namespace repmpi {
namespace {

using support::ComputeCache;
using support::ComputeCacheStats;
using support::ComputeClient;
using support::FifoMemo;

/// Scoped environment variable (tests toggle the cache's env switches).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    setenv(name, value, 1);
  }
  ~ScopedEnv() { unsetenv(name_); }

 private:
  const char* name_;
};

// ---------------------------------------------------------------------------
// FifoMemo
// ---------------------------------------------------------------------------

TEST(FifoMemo, BuildsOncePerKeyAndEvictsFifo) {
  FifoMemo<int, int> memo(2);
  int builds = 0;
  const auto build = [&](int v) {
    return [&builds, v] {
      ++builds;
      return std::make_shared<const int>(v);
    };
  };
  EXPECT_EQ(*memo.get_or_build(1, build(10)), 10);
  EXPECT_EQ(*memo.get_or_build(1, build(99)), 10);  // hit: not rebuilt
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(*memo.get_or_build(2, build(20)), 20);
  EXPECT_EQ(*memo.get_or_build(3, build(30)), 30);  // evicts key 1
  EXPECT_EQ(builds, 3);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(*memo.get_or_build(1, build(11)), 11);  // rebuilt after eviction
  EXPECT_EQ(builds, 4);
}

TEST(FifoMemo, ConcurrentBuildersShareOneInstance) {
  FifoMemo<int, int> memo(8);
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const int>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&memo, &got, t] {
      got[static_cast<std::size_t>(t)] =
          memo.get_or_build(7, [] { return std::make_shared<const int>(7); });
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)].get(), got[0].get());
  }
  EXPECT_EQ(memo.size(), 1u);
}

// ---------------------------------------------------------------------------
// ComputeCache / ComputeClient unit behavior
// ---------------------------------------------------------------------------

net::ComputeCost fill(std::vector<double>& v, double base, int* executions) {
  if (executions != nullptr) ++*executions;
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = base + static_cast<double>(i);
  }
  return {static_cast<double>(v.size()), 8.0 * static_cast<double>(v.size())};
}

TEST(ComputeCache, SiblingGetsProducersBytesAndCost) {
  ComputeCache cache(2);
  ComputeClient producer(&cache, /*logical=*/0);
  ComputeClient sibling(&cache, /*logical=*/0);

  std::vector<double> a(64), b(64, -1.0);
  int execs = 0;
  const auto ca = producer.shared(
      "phase", {std::as_writable_bytes(std::span(a))},
      [&] { return fill(a, 3.0, &execs); });
  // Sibling at the same (logical, step, phase): restored, not executed.
  const auto cb = sibling.shared(
      "phase", {std::as_writable_bytes(std::span(b))},
      [&] { return fill(b, 999.0, &execs); });
  EXPECT_EQ(execs, 1);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ca.flops, cb.flops);
  EXPECT_EQ(ca.mem_bytes, cb.mem_bytes);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // Fully consumed at degree 2: the entry is gone.
  EXPECT_EQ(cache.pending_entries(), 0u);
}

TEST(ComputeCache, DegreeThreeServesTwoSiblings) {
  ComputeCache cache(3);
  ComputeClient c0(&cache, 1), c1(&cache, 1), c2(&cache, 1);
  std::vector<double> v0(8), v1(8), v2(8);
  int execs = 0;
  c0.shared("p", {std::as_writable_bytes(std::span(v0))},
            [&] { return fill(v0, 1.0, &execs); });
  EXPECT_EQ(cache.pending_entries(), 1u);
  c1.shared("p", {std::as_writable_bytes(std::span(v1))},
            [&] { return fill(v1, 2.0, &execs); });
  EXPECT_EQ(cache.pending_entries(), 1u);  // one consumer still expected
  c2.shared("p", {std::as_writable_bytes(std::span(v2))},
            [&] { return fill(v2, 3.0, &execs); });
  EXPECT_EQ(execs, 1);
  EXPECT_EQ(v1, v0);
  EXPECT_EQ(v2, v0);
  EXPECT_EQ(cache.pending_entries(), 0u);
}

TEST(ComputeCache, DistinctLogicalRanksAndPhasesDoNotCollide) {
  ComputeCache cache(2);
  ComputeClient r0(&cache, 0), r1(&cache, 1);
  std::vector<double> v0(4), v1(4);
  int execs = 0;
  r0.shared("p", {std::as_writable_bytes(std::span(v0))},
            [&] { return fill(v0, 10.0, &execs); });
  r1.shared("p", {std::as_writable_bytes(std::span(v1))},
            [&] { return fill(v1, 20.0, &execs); });
  EXPECT_EQ(execs, 2);  // different logical ranks: both computed
  EXPECT_EQ(v0[0], 10.0);
  EXPECT_EQ(v1[0], 20.0);
}

TEST(ComputeCache, ByteCapEvictsOldestPendingEntries) {
  // Cap fits ~2 of the 4 KiB entries below.
  ComputeCache cache(2, /*max_bytes=*/10000);
  ComputeClient producer(&cache, 0);
  ComputeClient laggard(&cache, 0);
  std::vector<double> v(512);
  for (int s = 0; s < 4; ++s) {
    producer.shared("p", {std::as_writable_bytes(std::span(v))},
                    [&] { return fill(v, s, nullptr); });
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  EXPECT_LE(cache.pending_bytes(), 10000u);
  // The laggard misses evicted steps and recomputes — correctness is
  // preserved by fallback, not residency.
  int execs = 0;
  std::vector<double> w(512);
  laggard.shared("p", {std::as_writable_bytes(std::span(w))},
                 [&] { return fill(w, 0, &execs); });
  EXPECT_EQ(execs, 1);
  EXPECT_EQ(w[1], 1.0);
}

TEST(ComputeCache, ByteCapEvictionStaysOldestFirstOverRecycledEntries) {
  // Retired entries are kept and re-keyed by later publishes. Whatever node
  // an entry lands in, the byte cap must still evict the oldest pending
  // entries first, and a hit must return that step's bytes. Regions are
  // 64 KiB: the producer reports one flop per byte, so it publishes; the
  // sibling's recompute reports none, so a miss does not republish and the
  // resident set can be read off the sibling's hits.
  constexpr std::size_t kDoubles = 8192;
  constexpr double kBytes = kDoubles * sizeof(double);
  ComputeCache cache(2, /*max_bytes=*/3 * kDoubles * sizeof(double));
  ComputeClient producer(&cache, 0);
  ComputeClient sibling(&cache, 0);
  std::vector<double> v(kDoubles), w(kDoubles);
  const auto produce = [&](double base) {
    producer.shared("p", {std::as_writable_bytes(std::span(v))}, [&] {
      fill(v, base, nullptr);
      return net::ComputeCost{kBytes, kBytes};
    });
  };
  int recomputed = 0;
  const auto consume = [&](double base) {
    std::fill(w.begin(), w.end(), -1.0);
    sibling.shared("p", {std::as_writable_bytes(std::span(w))}, [&] {
      fill(w, base, &recomputed);
      return net::ComputeCost{};
    });
    EXPECT_EQ(w[1], base + 1);
  };

  // Churn: three entries published, then consumed, twenty times over.
  double base = 0;
  for (int round = 0; round < 20; ++round, base += 3) {
    for (int k = 0; k < 3; ++k) produce(base + k);
    for (int k = 0; k < 3; ++k) consume(base + k);
  }
  EXPECT_EQ(recomputed, 0);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.pending_entries(), 0u);

  // Six pending entries against a cap of three: the first three go.
  for (int k = 0; k < 6; ++k) produce(base + k);
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(cache.pending_entries(), 3u);
  for (int k = 0; k < 3; ++k) consume(base + k);
  EXPECT_EQ(recomputed, 3);  // evicted: the sibling recomputed them
  for (int k = 3; k < 6; ++k) consume(base + k);
  EXPECT_EQ(recomputed, 3);  // resident: served the producer's bytes
  EXPECT_EQ(cache.pending_entries(), 0u);
}

TEST(ComputeCache, VerifyModeAcceptsDeterministicRegions) {
  ScopedEnv env("REPMPI_VERIFY_SHARED_COMPUTE", "1");
  ComputeCache cache(2);
  ASSERT_TRUE(cache.verify_mode());
  ComputeClient a(&cache, 0), b(&cache, 0);
  std::vector<double> v(16), w(16);
  int execs = 0;
  a.shared("p", {std::as_writable_bytes(std::span(v))},
           [&] { return fill(v, 4.0, &execs); });
  b.shared("p", {std::as_writable_bytes(std::span(w))},
           [&] { return fill(w, 4.0, &execs); });
  EXPECT_EQ(execs, 2);  // verify mode recomputes on hits
  EXPECT_EQ(v, w);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ComputeCache, InertClientJustExecutes) {
  ComputeClient inert;
  EXPECT_FALSE(inert.active());
  std::vector<double> v(4);
  int execs = 0;
  inert.shared("p", {std::as_writable_bytes(std::span(v))},
               [&] { return fill(v, 8.0, &execs); });
  inert.shared("p", {std::as_writable_bytes(std::span(v))},
               [&] { return fill(v, 8.0, &execs); });
  EXPECT_EQ(execs, 2);
}

/// fill() with a modelled cost of `flops` (the publish rule's input).
net::ComputeCost fill_with_flops(std::vector<double>& v, double flops,
                                 int* executions) {
  fill(v, 1.0, executions);
  return {flops, 1.0};
}

TEST(ComputeCache, CheapLargeRegionIsNotPublished) {
  // Fewer modelled flops than output bytes (the vector family): publishing
  // would only add two MB-scale memcpys, so the region skips the cache and
  // every sibling recomputes (bit-identically).
  ComputeCache cache(2);
  ComputeClient producer(&cache, 0);
  ComputeClient sibling(&cache, 0);
  std::vector<double> v(1u << 18), w(1u << 18);
  const double bytes = 8.0 * static_cast<double>(v.size());
  int execs = 0;
  producer.shared("p", {std::as_writable_bytes(std::span(v))},
                  [&] { return fill_with_flops(v, bytes - 1.0, &execs); });
  EXPECT_EQ(cache.pending_entries(), 0u);
  EXPECT_EQ(cache.stats().uncached, 1u);
  sibling.shared("p", {std::as_writable_bytes(std::span(w))},
                 [&] { return fill_with_flops(w, bytes - 1.0, &execs); });
  EXPECT_EQ(execs, 2);  // sibling missed and recomputed
  EXPECT_EQ(v, w);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ComputeCache, ExpensiveLargeRegionIsPublished) {
  // At one modelled flop per output byte the region publishes.
  ComputeCache cache(2);
  ComputeClient producer(&cache, 0);
  ComputeClient sibling(&cache, 0);
  std::vector<double> v(1u << 18), w(1u << 18);
  const double bytes = 8.0 * static_cast<double>(v.size());
  int execs = 0;
  producer.shared("p", {std::as_writable_bytes(std::span(v))},
                  [&] { return fill_with_flops(v, bytes, &execs); });
  EXPECT_EQ(cache.pending_entries(), 1u);
  EXPECT_EQ(cache.stats().uncached, 0u);
  sibling.shared("p", {std::as_writable_bytes(std::span(w))},
                 [&] { return fill_with_flops(w, bytes, &execs); });
  EXPECT_EQ(execs, 1);
  EXPECT_EQ(v, w);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(ComputeCache, SmallRegionsAlwaysPublish) {
  // Below kMinAdaptiveBytes the cost rule is off: tiny regions publish
  // unconditionally, even at zero modelled flops.
  ComputeCache cache(2);
  ComputeClient producer(&cache, 0);
  std::vector<double> v(8, 1.0);
  producer.shared("p", {std::as_writable_bytes(std::span(v))},
                  [&]() -> net::ComputeCost { return {}; });
  EXPECT_EQ(cache.pending_entries(), 1u);
  EXPECT_EQ(cache.stats().uncached, 0u);
}

// ---------------------------------------------------------------------------
// Table-only row gather: bit-identical to the general CSR walk over the
// explicit form.
// ---------------------------------------------------------------------------

TEST(StructuredGather, MatchesGeneralWalkForAllBoundaryCombos) {
  support::Rng rng(0xabcdULL);
  for (const kernels::Stencil st :
       {kernels::Stencil::k7pt, kernels::Stencil::k27pt}) {
    for (const bool lower : {false, true}) {
      for (const bool upper : {false, true}) {
        const kernels::CsrMatrix a =
            kernels::build_grid_matrix(st, 5, 4, 6, lower, upper);
        std::vector<double> x(a.vector_len());
        for (double& v : x) v = rng.uniform(-2.0, 2.0);

        // Reference: the explicit-CSR form through the general walk.
        const std::vector<double> want =
            testing::build_explicit_grid_matrix(st, 5, 4, 6, lower, upper)
                .gather_all(x);

        std::vector<double> got(static_cast<std::size_t>(a.rows()), -7.0);
        kernels::csr_row_gather(a, x, got, 0, a.rows());
        for (std::size_t r = 0; r < want.size(); ++r) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(want[r]),
                    std::bit_cast<std::uint64_t>(got[r]))
              << "stencil=" << static_cast<int>(st) << " lower=" << lower
              << " upper=" << upper << " row=" << r;
        }

        // Sub-ranges (task splits) hit the same values.
        const std::int64_t mid = a.rows() / 3;
        std::vector<double> part(static_cast<std::size_t>(a.rows() - mid));
        kernels::csr_row_gather(a, x, part, mid, a.rows());
        for (std::size_t i = 0; i < part.size(); ++i) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(
                        want[static_cast<std::size_t>(mid) + i]),
                    std::bit_cast<std::uint64_t>(part[i]));
        }
      }
    }
  }
}

TEST(StructuredGather, Stencil27RangeMatchesFullSweep) {
  support::Rng rng(0x5151ULL);
  kernels::Grid3D in(6, 5, 7), full(6, 5, 7), ranged(6, 5, 7);
  for (double& v : in.data) v = rng.uniform(0.0, 2.0);
  kernels::stencil27(in, full);
  kernels::stencil27_range(in, ranged, 0, 3);
  kernels::stencil27_range(in, ranged, 3, 7);
  for (std::size_t i = 0; i < full.data.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(full.data[i]),
              std::bit_cast<std::uint64_t>(ranged.data[i]));
  }
}

// ---------------------------------------------------------------------------
// End to end: sharing never changes a virtual-time number or app result.
// ---------------------------------------------------------------------------

struct AppOutcome {
  apps::RunResult run;
  double value = 0;  ///< app-level numeric result (consistency probe)
};

void expect_same_outcome(const AppOutcome& a, const AppOutcome& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.run.wallclock),
            std::bit_cast<std::uint64_t>(b.run.wallclock));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
            std::bit_cast<std::uint64_t>(b.value));
  ASSERT_EQ(a.run.phase_max.size(), b.run.phase_max.size());
  for (const auto& [phase, t] : a.run.phase_max) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(t),
              std::bit_cast<std::uint64_t>(b.run.phase_max.at(phase)))
        << phase;
  }
  EXPECT_EQ(a.run.net_messages, b.run.net_messages);
  EXPECT_EQ(a.run.net_bytes, b.run.net_bytes);
  EXPECT_EQ(a.run.intra_total.tasks_executed, b.run.intra_total.tasks_executed);
}

AppOutcome run_hpccg(apps::RunMode mode, int degree,
                     fault::FaultPlan* faults = nullptr, int nz = 8) {
  apps::RunConfig cfg;
  cfg.mode = mode;
  cfg.num_logical = 4;
  cfg.degree = degree;
  cfg.faults = faults;
  apps::HpccgParams p;
  p.nx = p.ny = 8;
  p.nz = nz;
  p.iterations = 3;
  p.intra_waxpby = false;  // direct path: exercises the shared regions
  AppOutcome out;
  out.run = apps::run_app(cfg, [&](apps::AppContext& ctx) {
    const apps::HpccgResult r = apps::hpccg(ctx, p);
    out.value = r.xsum + r.rnorm;
  });
  return out;
}

TEST(SharedComputeEndToEnd, ResultsBitIdenticalWithAndWithoutSharing) {
  for (const apps::RunMode mode :
       {apps::RunMode::kReplicated, apps::RunMode::kIntra}) {
    for (const int degree : {2, 3}) {
      const AppOutcome shared = run_hpccg(mode, degree);
      EXPECT_GT(shared.run.compute_cache.hits, 0u) << "sharing inactive?";
      AppOutcome unshared;
      {
        ScopedEnv off("REPMPI_NO_SHARED_COMPUTE", "1");
        unshared = run_hpccg(mode, degree);
      }
      EXPECT_EQ(unshared.run.compute_cache.hits, 0u);
      expect_same_outcome(shared, unshared);
    }
  }
}

TEST(SharedComputeEndToEnd, NativeAndVerifyModesNeverShare) {
  const AppOutcome native = run_hpccg(apps::RunMode::kNative, 1);
  EXPECT_EQ(native.run.compute_cache.hits, 0u);
  EXPECT_EQ(native.run.compute_cache.misses, 0u);
  const AppOutcome sdc = run_hpccg(apps::RunMode::kReplicatedVerify, 2);
  EXPECT_EQ(sdc.run.compute_cache.hits, 0u);
}

TEST(SharedComputeEndToEnd, StatsDependOnTheConfigAlone) {
  // 8x8x128 rows per rank: every vector region is 64 KiB, so the cost rule
  // decides (SpMV publishes, waxpby does not). The publish decisions read
  // no clock, so two runs of one config agree field for field.
  const AppOutcome a = run_hpccg(apps::RunMode::kReplicated, 2, nullptr, 128);
  const AppOutcome b = run_hpccg(apps::RunMode::kReplicated, 2, nullptr, 128);
  const ComputeCacheStats& x = a.run.compute_cache;
  const ComputeCacheStats& y = b.run.compute_cache;
  EXPECT_GT(x.hits, 0u);
  EXPECT_GT(x.uncached, 0u);
  EXPECT_EQ(x.hits, y.hits);
  EXPECT_EQ(x.misses, y.misses);
  EXPECT_EQ(x.bypasses, y.bypasses);
  EXPECT_EQ(x.evictions, y.evictions);
  EXPECT_EQ(x.shared_bytes, y.shared_bytes);
  EXPECT_EQ(x.uncached, y.uncached);
}

TEST(SharedComputeEndToEnd, FaultPlansRunWithoutCache) {
  // Crash and SDC rules count real executions, so a run with a fault plan
  // gets no cache: zero lookups, and results equal to the unshared run
  // with the same plan.
  struct Case {
    apps::RunMode mode;
    fault::FaultPlan (*plan)();
  };
  const Case cases[] = {
      {apps::RunMode::kIntra,
       [] {
         fault::FaultPlan p;
         p.add({.world_rank = 5, .site = fault::CrashSite::kAfterTaskExec,
                .nth = 2});
         return p;
       }},
      {apps::RunMode::kReplicated,
       [] {
         fault::FaultPlan p;
         p.add_corruption({.world_rank = 5, .nth = 3});
         return p;
       }},
  };
  for (const Case& c : cases) {
    fault::FaultPlan shared_plan = c.plan();
    const AppOutcome shared = run_hpccg(c.mode, 2, &shared_plan);
    EXPECT_EQ(shared_plan.fired() + shared_plan.corruptions_fired(), 1);
    EXPECT_EQ(shared.run.compute_cache.hits, 0u);
    EXPECT_EQ(shared.run.compute_cache.misses, 0u);
    fault::FaultPlan unshared_plan = c.plan();
    AppOutcome unshared;
    {
      ScopedEnv off("REPMPI_NO_SHARED_COMPUTE", "1");
      unshared = run_hpccg(c.mode, 2, &unshared_plan);
    }
    expect_same_outcome(shared, unshared);
  }
}

// ---------------------------------------------------------------------------
// Recompute-and-compare mode across all four apps: every shared region must
// be bit-reproducible, or the run aborts.
// ---------------------------------------------------------------------------

TEST(SharedComputeVerifyMode, AllFourAppsPassRecomputeAndCompare) {
  ScopedEnv verify("REPMPI_VERIFY_SHARED_COMPUTE", "1");
  for (const int degree : {2, 3}) {
    apps::RunConfig cfg;
    cfg.mode = apps::RunMode::kReplicated;
    cfg.num_logical = 2;
    cfg.degree = degree;

    apps::HpccgParams hp;
    hp.nx = hp.ny = hp.nz = 8;
    hp.iterations = 2;
    apps::run_app(cfg, [&](apps::AppContext& ctx) { apps::hpccg(ctx, hp); });

    apps::MiniGhostParams mp;
    mp.nx = mp.ny = mp.nz = 8;
    mp.steps = 2;
    mp.num_vars = 2;
    apps::run_app(cfg,
                  [&](apps::AppContext& ctx) { apps::minighost(ctx, mp); });

    apps::GtcParams gp;
    gp.grid = 16;
    gp.particles_per_rank = 500;
    gp.steps = 2;
    apps::run_app(cfg, [&](apps::AppContext& ctx) { apps::gtc(ctx, gp); });

    apps::AmgParams ap;
    ap.nx = ap.ny = ap.nz = 8;
    ap.levels = 2;
    ap.iterations = 2;
    ap.coarse_smooth = 2;
    apps::run_app(cfg, [&](apps::AppContext& ctx) { apps::amg(ctx, ap); });
  }
}

}  // namespace
}  // namespace repmpi
