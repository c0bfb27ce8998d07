// Pluggable kernel backends (kernels/backend.hpp): the process-wide
// selection, bitwise scalar-vs-SIMD equivalence for every kernel family on
// randomized and edge-shaped inputs, the REPMPI_VERIFY_BACKEND
// recompute-and-compare mode across all four apps, backend-agnosticism of
// the end-to-end virtual-time results (including ComputeCache sharing and
// sharded-engine workers), and the thread-local kernel timing totals.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include "apps/amg.hpp"
#include "apps/gtc.hpp"
#include "apps/hpccg.hpp"
#include "apps/minighost.hpp"
#include "apps/runner.hpp"
#include "kernels/backend.hpp"
#include "kernels/pic.hpp"
#include "kernels/sparse.hpp"
#include "kernels/stencil.hpp"
#include "kernels/vector_ops.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace repmpi {
namespace {

using kernels::Backend;

/// The SIMD backends this build + host can actually execute (none on a
/// scalar-only toolchain or CPU — the bitwise tests then trivially pass).
std::vector<Backend> simd_backends() {
  if (kernels::backend_supported(Backend::kAvx2)) return {Backend::kAvx2};
  return {};
}

void expect_bits_eq(std::span<const double> want, std::span<const double> got,
                    const char* what, Backend b) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(want[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " backend=" << kernels::to_string(b) << " i=" << i
        << " want=" << want[i] << " got=" << got[i];
  }
}

/// Sets the process-wide backend for the scope's lifetime and restores the
/// previous one on exit. The tests of this binary run one at a time, so no
/// run observes a switch.
class UseBackend {
 public:
  explicit UseBackend(Backend b) : prev_(kernels::active_backend()) {
    kernels::set_active_backend(b);
  }
  ~UseBackend() { kernels::set_active_backend(prev_); }
  UseBackend(const UseBackend&) = delete;
  UseBackend& operator=(const UseBackend&) = delete;

 private:
  Backend prev_;
};

/// Random vector with denormal / zero / negative-zero lanes sprinkled in:
/// the values most likely to expose a SIMD path that flushes or renormalizes
/// where the scalar reference does not.
std::vector<double> edge_vector(std::size_t n, support::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  if (n > 1) v[1] = 1e-310;        // denormal
  if (n > 3) v[3] = -3e-312;       // negative denormal
  if (n > 5) v[5] = -0.0;
  if (n > 6) v[6] = 0.0;
  return v;
}

// ---------------------------------------------------------------------------
// Dispatch mechanics
// ---------------------------------------------------------------------------

TEST(BackendDispatch, NameRoundTrip) {
  for (Backend b : {Backend::kAuto, Backend::kScalar, Backend::kAvx2}) {
    Backend parsed;
    ASSERT_TRUE(kernels::backend_from_string(kernels::to_string(b), &parsed));
    EXPECT_EQ(parsed, b);
  }
  Backend parsed;
  EXPECT_FALSE(kernels::backend_from_string("", &parsed));
  EXPECT_FALSE(kernels::backend_from_string("bogus", &parsed));
  EXPECT_FALSE(kernels::backend_from_string("AVX2", &parsed));  // case matters
  EXPECT_FALSE(kernels::backend_from_string("avx512", &parsed));
}

TEST(BackendDispatch, ScalarAlwaysThereAndDetectIsSupported) {
  EXPECT_TRUE(kernels::backend_compiled(Backend::kScalar));
  EXPECT_TRUE(kernels::backend_supported(Backend::kScalar));
  EXPECT_TRUE(kernels::backend_supported(Backend::kAuto));
  const Backend best = kernels::detect_backend();
  EXPECT_NE(best, Backend::kAuto);
  EXPECT_TRUE(kernels::backend_supported(best));
  // A supported backend implies its code is compiled into this binary.
  for (Backend b : simd_backends()) EXPECT_TRUE(kernels::backend_compiled(b));
}

TEST(BackendDispatch, AutoResolvesToAvx2WhereSupported) {
  const Backend want = kernels::backend_supported(Backend::kAvx2)
                           ? Backend::kAvx2
                           : Backend::kScalar;
  EXPECT_EQ(kernels::detect_backend(), want);
}

TEST(BackendDispatch, ActiveBackendStartsAtTheDetectedOne) {
  EXPECT_EQ(kernels::active_backend(), kernels::detect_backend());
  EXPECT_EQ(kernels::active_ops().kind, kernels::detect_backend());
}

TEST(BackendDispatch, SetActiveBackendIsProcessWide) {
  const Backend outer = kernels::active_backend();
  std::vector<Backend> all = simd_backends();
  all.insert(all.begin(), Backend::kScalar);
  for (Backend b : all) {
    kernels::set_active_backend(b);
    EXPECT_EQ(kernels::active_backend(), b);
    EXPECT_EQ(kernels::active_ops().kind, b);
    // Every other thread reads the same table, with nothing installed.
    Backend seen = Backend::kAuto;
    std::thread([&seen] { seen = kernels::active_ops().kind; }).join();
    EXPECT_EQ(seen, b);
  }
  // kAuto resolves to the detected backend rather than storing "auto".
  kernels::set_active_backend(Backend::kAuto);
  EXPECT_EQ(kernels::active_backend(), kernels::detect_backend());
  kernels::set_active_backend(outer);
}

TEST(BackendDispatch, SetActiveBackendRejectsAnUnsupportedOne) {
  const Backend outer = kernels::active_backend();
  EXPECT_THROW(kernels::set_active_backend(static_cast<Backend>(99)),
               support::InvariantError);
  if (!kernels::backend_supported(Backend::kAvx2)) {
    EXPECT_THROW(kernels::set_active_backend(Backend::kAvx2),
                 support::InvariantError);
  }
  EXPECT_EQ(kernels::active_backend(), outer);
}

TEST(BackendDispatch, OpsTableKindMatchesRequest) {
  EXPECT_EQ(kernels::backend_ops(Backend::kScalar).kind, Backend::kScalar);
  for (Backend b : simd_backends()) {
    EXPECT_EQ(kernels::backend_ops(b).kind, b);
  }
}

// ---------------------------------------------------------------------------
// Bitwise scalar-vs-SIMD equivalence, kernel family by kernel family. All
// calls go through the public kernel entry points under UseBackend, so the
// dispatch seam itself is on the tested path.
// ---------------------------------------------------------------------------

TEST(BackendBitwise, VectorOps) {
  support::Rng rng(0xbeefULL);
  // Unaligned lengths on purpose: every tail-remainder class for 4-wide and
  // 8-wide lanes, plus empty and below-one-vector sizes.
  const std::size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 31, 64, 67, 1000};
  for (Backend b : simd_backends()) {
    for (std::size_t n : sizes) {
      const std::vector<double> x = edge_vector(n, rng);
      const std::vector<double> y = edge_vector(n, rng);
      const double alpha = rng.uniform(-1.5, 1.5);
      const double beta = rng.uniform(-1.5, 1.5);

      std::vector<double> w_want(n, -7.0), w_got(n, -7.0);
      std::vector<double> axpy_want = y, axpy_got = y;
      std::vector<double> alias_want = x, alias_got = x;
      double dot_want = 0, dot_got = 0;
      {
        const UseBackend use(Backend::kScalar);
        kernels::waxpby(alpha, x, beta, y, w_want);
        kernels::axpy(alpha, x, axpy_want);
        kernels::ddot(x, y, &dot_want);
        kernels::waxpby(alpha, alias_want, beta, y, alias_want);  // w == x
      }
      {
        const UseBackend use(b);
        kernels::waxpby(alpha, x, beta, y, w_got);
        kernels::axpy(alpha, x, axpy_got);
        kernels::ddot(x, y, &dot_got);
        kernels::waxpby(alpha, alias_got, beta, y, alias_got);
      }
      expect_bits_eq(w_want, w_got, "waxpby", b);
      expect_bits_eq(axpy_want, axpy_got, "axpy", b);
      expect_bits_eq(alias_want, alias_got, "waxpby aliased", b);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(dot_want),
                std::bit_cast<std::uint64_t>(dot_got))
          << "ddot backend=" << kernels::to_string(b) << " n=" << n;
    }
  }
}

TEST(BackendBitwise, CsrRowGatherStructured) {
  support::Rng rng(0x5eedULL);
  struct Shape {
    int nx, ny, nz;
  };
  // 5x4x6 has interior runs long enough for full vectors plus tails; 3x3x3
  // is all boundary classes; 4x3x3 gives 2-wide interior runs (pure tail).
  const Shape shapes[] = {{5, 4, 6}, {3, 3, 3}, {4, 3, 3}};
  for (Backend b : simd_backends()) {
    for (const kernels::Stencil st :
         {kernels::Stencil::k7pt, kernels::Stencil::k27pt}) {
      for (const bool lower : {false, true}) {
        for (const bool upper : {false, true}) {
          for (const Shape& s : shapes) {
            const kernels::CsrMatrix a =
                kernels::build_grid_matrix(st, s.nx, s.ny, s.nz, lower, upper);
            std::vector<double> x(a.vector_len());
            for (double& v : x) v = rng.uniform(-2.0, 2.0);
            x[0] = 1e-310;

            // Reference: the explicit-CSR form through the general walk.
            std::vector<double> want(static_cast<std::size_t>(a.rows()));
            std::vector<double> got(want.size(), -7.0);
            {
              const UseBackend use(Backend::kScalar);
              kernels::csr_row_gather(
                  kernels::build_explicit_grid_matrix(st, s.nx, s.ny, s.nz,
                                                      lower, upper),
                  x, want, 0, a.rows());
            }
            {
              const UseBackend use(b);
              kernels::csr_row_gather(a, x, got, 0, a.rows());
              // Sub-range starting at an odd row: the SIMD run boundary
              // lands mid-plane.
              const std::int64_t r0 = a.rows() / 3 | 1;
              std::vector<double> part(static_cast<std::size_t>(a.rows() - r0));
              kernels::csr_row_gather(a, x, part, r0, a.rows());
              for (std::size_t i = 0; i < part.size(); ++i) {
                ASSERT_EQ(std::bit_cast<std::uint64_t>(
                              want[static_cast<std::size_t>(r0) + i]),
                          std::bit_cast<std::uint64_t>(part[i]))
                    << "sub-range backend=" << kernels::to_string(b);
              }
            }
            expect_bits_eq(want, got, "csr_row_gather", b);
          }
        }
      }
    }
  }
}

TEST(BackendBitwise, CsrRowGatherUnstructuredAndEmptyRows) {
  // Hand-built general CSR with empty rows and ragged row lengths: the
  // general walk must behave identically whatever backend is active (it
  // only vectorizes structured interior runs).
  kernels::CsrMatrix a;
  a.row_start = {0, 0, 3, 3, 5, 6, 6};
  a.col = {0, 2, 4, 1, 3, 0};
  a.val = {2.0, -1.0, 0.5, 1e-310, -3.25, 7.0};
  const std::vector<double> x = {1.5, -2.0, 3.0, 1e-309, -0.0};

  std::vector<double> want(static_cast<std::size_t>(a.rows()), -7.0);
  std::vector<double> got(want.size(), -7.0);
  {
    const UseBackend use(Backend::kScalar);
    kernels::csr_row_gather(a, x, want, 0, a.rows());
  }
  EXPECT_EQ(want[0], 0.0);  // empty row sums to exactly zero
  EXPECT_EQ(want[2], 0.0);
  for (Backend b : simd_backends()) {
    const UseBackend use(b);
    kernels::csr_row_gather(a, x, got, 0, a.rows());
    expect_bits_eq(want, got, "unstructured gather", b);
  }
}

TEST(TableOnlyOperator, MatchesExplicitBuilder) {
  // The table-only form must reproduce the explicit-CSR form: row_start
  // element by element (the virtual-time cost input) and every gathered
  // bit on every backend this host runs.
  support::Rng rng(0x7ab1eULL);
  struct Shape {
    int nx, ny, nz;
  };
  const Shape shapes[] = {{5, 4, 6}, {3, 3, 3}, {4, 3, 3}, {32, 32, 64}};
  std::vector<Backend> backends = simd_backends();
  backends.insert(backends.begin(), Backend::kScalar);
  for (const kernels::Stencil st :
       {kernels::Stencil::k7pt, kernels::Stencil::k27pt}) {
    for (const bool lower : {false, true}) {
      for (const bool upper : {false, true}) {
        for (const Shape& s : shapes) {
          const kernels::CsrMatrix a =
              kernels::build_grid_matrix(st, s.nx, s.ny, s.nz, lower, upper);
          const kernels::CsrMatrix ref = kernels::build_explicit_grid_matrix(
              st, s.nx, s.ny, s.nz, lower, upper);
          ASSERT_NE(a.tables, nullptr);
          EXPECT_TRUE(a.col.empty() && a.val.empty());
          ASSERT_EQ(a.row_start, ref.row_start)
              << "stencil=" << static_cast<int>(st) << " lower=" << lower
              << " upper=" << upper << " shape=" << s.nx << "x" << s.ny
              << "x" << s.nz;
          EXPECT_EQ(a.nnz(), static_cast<std::int64_t>(ref.col.size()));

          const std::vector<double> x = edge_vector(a.vector_len(), rng);
          std::vector<double> want(static_cast<std::size_t>(a.rows()));
          {
            const UseBackend use(Backend::kScalar);
            kernels::csr_row_gather(ref, x, want, 0, ref.rows());
          }
          for (Backend b : backends) {
            std::vector<double> got(want.size(), -7.0);
            const UseBackend use(b);
            kernels::csr_row_gather(a, x, got, 0, a.rows());
            expect_bits_eq(want, got, "table-only gather", b);
          }
        }
      }
    }
  }
  const auto cached = kernels::grid_matrix_cached(kernels::Stencil::k27pt, 32,
                                                  32, 64, true, true);
  EXPECT_TRUE(cached->col.empty());
  EXPECT_TRUE(cached->val.empty());
  EXPECT_EQ(cached->nnz(), 94 * 94 * 192);
}

TEST(TableOnlyOperator, GeneralWalkRejectsMissingEntries) {
  // A table-only operator stripped of its tables has no entries for the
  // general walk to read: the gather refuses it instead of reading past
  // empty col/val.
  kernels::CsrMatrix a =
      kernels::build_grid_matrix(kernels::Stencil::k7pt, 4, 4, 4, true, true);
  a.tables = nullptr;
  std::vector<double> x(a.vector_len(), 1.0);
  std::vector<double> out(static_cast<std::size_t>(a.rows()));
  EXPECT_THROW(kernels::csr_row_gather(a, x, out, 0, a.rows()),
               support::InvariantError);
}

TEST(BackendBitwise, Stencil27) {
  support::Rng rng(0x27272727ULL);
  struct Shape {
    int nx, ny, nz;
  };
  // 9x5x4 exercises full vectors + tails per row; 3x3x3 is minimum-interior;
  // 2x3x3 has no interior columns at all (pure edge fallback).
  const Shape shapes[] = {{9, 5, 4}, {3, 3, 3}, {2, 3, 3}};
  for (Backend b : simd_backends()) {
    for (const Shape& s : shapes) {
      kernels::Grid3D in(s.nx, s.ny, s.nz);
      for (double& v : in.data) v = rng.uniform(-1.0, 1.0);
      in.data[0] = 1e-310;

      kernels::Grid3D want(s.nx, s.ny, s.nz), got(s.nx, s.ny, s.nz);
      {
        const UseBackend use(Backend::kScalar);
        kernels::stencil27(in, want);
      }
      {
        const UseBackend use(b);
        // Split into ranges so the z-range entry point is covered too.
        kernels::stencil27_range(in, got, 0, s.nz / 2 + 1);
        kernels::stencil27_range(in, got, s.nz / 2 + 1, s.nz);
      }
      expect_bits_eq(want.data, got.data, "stencil27", b);
    }
  }
}

/// 257 particles (tail after 4- and 8-wide blocks), with positions pushed
/// far outside the domain, landing exactly on the boundary, and denormal
/// velocities — the inputs that force the SIMD wrap's libm-fmod fallback
/// lanes and the axis classification edge cases.
kernels::Particles edge_particles(double lx, double ly) {
  kernels::Particles p;
  kernels::init_particles(p, 257, lx, ly, support::Rng(0x9191ULL));
  p.x[3] = 5.0 * lx;
  p.y[3] = -3.7 * ly;
  p.x[7] = lx;  // wraps to exactly 0
  p.y[7] = ly;
  p.x[101] = -1e-310;  // negative denormal position
  p.vx[11] = 1e-310;
  p.vy[11] = -4e-311;
  return p;
}

TEST(BackendBitwise, PicChargeDeposit) {
  const double lx = 13.0, ly = 9.0;
  const kernels::Particles p = edge_particles(lx, ly);
  for (Backend b : simd_backends()) {
    kernels::Field2D want(16, 12), got(16, 12);
    {
      const UseBackend use(Backend::kScalar);
      kernels::charge_deposit(p, 0, p.count(), lx, ly, want);
    }
    {
      const UseBackend use(b);
      kernels::charge_deposit(p, 0, p.count(), lx, ly, got);
      // Sub-range deposits accumulate identically too (odd split point).
      kernels::Field2D split(16, 12);
      kernels::charge_deposit(p, 0, 129, lx, ly, split);
      kernels::charge_deposit(p, 129, p.count(), lx, ly, split);
      expect_bits_eq(want.v, split.v, "charge_deposit split", b);
    }
    expect_bits_eq(want.v, got.v, "charge_deposit", b);
  }
}

TEST(BackendBitwise, PicPushMultiStep) {
  const double lx = 13.0, ly = 9.0;
  support::Rng rng(0x7777ULL);
  kernels::Field2D ex(16, 12), ey(16, 12);
  for (double& v : ex.v) v = rng.uniform(-0.5, 0.5);
  for (double& v : ey.v) v = rng.uniform(-0.5, 0.5);

  for (Backend b : simd_backends()) {
    kernels::Particles want = edge_particles(lx, ly);
    kernels::Particles got = want;
    // Several steps so divergence anywhere would compound and be caught.
    for (int step = 0; step < 3; ++step) {
      {
        const UseBackend use(Backend::kScalar);
        kernels::push(want.x, want.y, want.vx, want.vy, want.rho, lx, ly,
                      0.05, ex, ey);
      }
      {
        const UseBackend use(b);
        kernels::push(got.x, got.y, got.vx, got.vy, got.rho, lx, ly, 0.05, ex,
                      ey);
      }
      expect_bits_eq(want.x, got.x, "push.x", b);
      expect_bits_eq(want.y, got.y, "push.y", b);
      expect_bits_eq(want.vx, got.vx, "push.vx", b);
      expect_bits_eq(want.vy, got.vy, "push.vy", b);
    }
  }
}

// ---------------------------------------------------------------------------
// Recompute-and-compare mode
// ---------------------------------------------------------------------------

TEST(BackendVerifyMode, MismatchAborts) {
  const double want[] = {1.0, 2.0, 3.0};
  const double same[] = {1.0, 2.0, 3.0};
  EXPECT_NO_THROW(kernels::verify_backend_match("k", same, want, 3));
  const double off_by_one_ulp[] = {
      1.0, std::bit_cast<double>(std::bit_cast<std::uint64_t>(2.0) + 1), 3.0};
  EXPECT_THROW(kernels::verify_backend_match("k", off_by_one_ulp, want, 3),
               support::InvariantError);
  // -0.0 vs +0.0 compare equal as doubles but differ bitwise: must abort.
  const double neg_zero[] = {-0.0};
  const double pos_zero[] = {0.0};
  EXPECT_THROW(kernels::verify_backend_match("k", neg_zero, pos_zero, 1),
               support::InvariantError);
}

/// RAII for set_verify_backend (restores the env-resolved default).
class ScopedVerifyBackend {
 public:
  ScopedVerifyBackend() { kernels::set_verify_backend(true); }
  ~ScopedVerifyBackend() { kernels::set_verify_backend(false); }
};

TEST(BackendVerifyMode, AllFourAppsPassRecomputeAndCompare) {
  // Every kernel dispatched on the best SIMD backend is recomputed through
  // the scalar reference and compared bit for bit, across all four apps at
  // degrees 2 and 3 (same configurations as SharedComputeVerifyMode, so the
  // ComputeCache sharing paths are live under verification as well).
  ScopedVerifyBackend verify;
  const UseBackend use(kernels::detect_backend());
  ASSERT_TRUE(kernels::verify_backend_active());
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
  // Intra-parallelized path too: task-split sub-ranges verify as well.
  apps::RunConfig intra;
  intra.mode = apps::RunMode::kIntra;
  intra.num_logical = 2;
  intra.degree = 2;
  apps::HpccgParams hp;
  hp.nx = hp.ny = hp.nz = 8;
  hp.iterations = 2;
  apps::run_app(intra, [&](apps::AppContext& ctx) { apps::hpccg(ctx, hp); });
}

// ---------------------------------------------------------------------------
// End to end: the backend never changes a virtual-time number.
// ---------------------------------------------------------------------------

struct AppOutcome {
  apps::RunResult run;
  double value = 0;
  /// The backend each physical rank's kernels dispatched through.
  std::vector<Backend> seen;
};

AppOutcome run_hpccg(Backend backend, int shards = 0) {
  const UseBackend use(backend);
  apps::RunConfig cfg;
  cfg.mode = apps::RunMode::kIntra;
  cfg.num_logical = 2;
  cfg.degree = 2;
  cfg.shards = shards;
  apps::HpccgParams p;
  p.nx = p.ny = p.nz = 8;
  p.iterations = 3;
  AppOutcome out;
  out.seen.assign(static_cast<std::size_t>(cfg.num_physical()),
                  Backend::kAuto);
  out.run = apps::run_app(cfg, [&](apps::AppContext& ctx) {
    const apps::HpccgResult r = apps::hpccg(ctx, p);
    // One writer per slot: under sharding the ranks run on other threads.
    const int wr = ctx.proc.world_rank();
    out.seen[static_cast<std::size_t>(wr)] = kernels::active_backend();
    if (wr == 0) out.value = r.xsum + r.rnorm;
  });
  return out;
}

void expect_same_outcome(const AppOutcome& a, const AppOutcome& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.run.wallclock),
            std::bit_cast<std::uint64_t>(b.run.wallclock));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value),
            std::bit_cast<std::uint64_t>(b.value));
  EXPECT_EQ(a.run.net_messages, b.run.net_messages);
  EXPECT_EQ(a.run.net_bytes, b.run.net_bytes);
  EXPECT_EQ(a.run.intra_total.tasks_executed, b.run.intra_total.tasks_executed);
}

TEST(BackendEndToEnd, ComputeCacheSharingBitIdenticalAcrossBackends) {
  const std::vector<Backend> simd = simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this build/host";
  const AppOutcome scalar = run_hpccg(Backend::kScalar);
  EXPECT_GT(scalar.run.compute_cache.hits, 0u) << "sharing inactive?";
  for (Backend b : simd) {
    const AppOutcome vec = run_hpccg(b);
    expect_same_outcome(scalar, vec);
    // Identical kernel output bytes hash to identical cache traffic.
    EXPECT_EQ(scalar.run.compute_cache.hits, vec.run.compute_cache.hits);
    EXPECT_EQ(scalar.run.compute_cache.shared_bytes,
              vec.run.compute_cache.shared_bytes);
  }
}

TEST(BackendEndToEnd, ShardedWorkersSeeTheProcessWideBackend) {
  const std::vector<Backend> simd = simd_backends();
  if (simd.empty()) GTEST_SKIP() << "no SIMD backend on this build/host";
  // Rank fibers execute on engine worker threads, which install nothing:
  // they read the process-wide table, and results match the scalar run.
  const AppOutcome scalar = run_hpccg(Backend::kScalar, /*shards=*/1);
  const AppOutcome vec = run_hpccg(simd.back(), /*shards=*/2);
  expect_same_outcome(scalar, vec);
  for (Backend b : scalar.seen) EXPECT_EQ(b, Backend::kScalar);
  for (Backend b : vec.seen) EXPECT_EQ(b, simd.back());
}

// ---------------------------------------------------------------------------
// Kernel timing totals (perfbench's kernels.* probes read them)
// ---------------------------------------------------------------------------

std::uint64_t family_ns(const kernels::KernelTotals& t,
                        kernels::KernelFamily f) {
  return t.ns[static_cast<int>(f)];
}

TEST(KernelTotals, ClassicRunAdvancesOnlyTheCallingThread) {
  // A second thread holds its snapshot across the run: the totals are
  // thread-local, so its counts must not move.
  kernels::KernelTotals other_before, other_after;
  std::latch snapped(1), ran(1);
  std::thread other([&] {
    other_before = kernels::kernel_totals();
    snapped.count_down();
    ran.wait();
    other_after = kernels::kernel_totals();
  });
  snapped.wait();
  const kernels::KernelTotals before = kernels::kernel_totals();
  run_hpccg(kernels::detect_backend());
  const kernels::KernelTotals after = kernels::kernel_totals();
  ran.count_down();
  other.join();

  for (auto f : {kernels::KernelFamily::kSpmv, kernels::KernelFamily::kVector}) {
    EXPECT_GT(family_ns(after, f), family_ns(before, f))
        << "family " << static_cast<int>(f);
  }
  for (int f = 0; f < static_cast<int>(kernels::KernelFamily::kCount); ++f) {
    EXPECT_EQ(other_after.ns[f], other_before.ns[f]) << "family " << f;
  }
}

TEST(KernelTotals, ShardedRunKeepsKernelTimeOnItsWorkers) {
  const kernels::KernelTotals before = kernels::kernel_totals();
  run_hpccg(kernels::detect_backend(), /*shards=*/2);
  const kernels::KernelTotals after = kernels::kernel_totals();
  for (int f = 0; f < static_cast<int>(kernels::KernelFamily::kCount); ++f) {
    EXPECT_EQ(after.ns[f], before.ns[f]) << "family " << f;
  }
}

}  // namespace
}  // namespace repmpi
