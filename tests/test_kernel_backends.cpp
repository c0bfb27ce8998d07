// Pluggable kernel backends (kernels/backend.hpp): the process-wide
// selection, bitwise scalar-vs-SIMD equivalence for every kernel family on
// randomized and edge-shaped inputs (the SpMV gather's run-level path at
// every sub-range offset and against guard pages), the REPMPI_VERIFY_BACKEND
// recompute-and-compare mode across all four apps, backend-agnosticism of
// the end-to-end virtual-time results (including ComputeCache sharing and
// sharded-engine workers), and the thread-local kernel timing totals.

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "apps/amg.hpp"
#include "apps/gtc.hpp"
#include "apps/hpccg.hpp"
#include "apps/minighost.hpp"
#include "apps/runner.hpp"
#include "explicit_grid_matrix.hpp"
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

/// Scalar first, then every SIMD backend this host runs.
std::vector<Backend> all_backends() {
  std::vector<Backend> all = simd_backends();
  all.insert(all.begin(), Backend::kScalar);
  return all;
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
  for (Backend b : all_backends()) {
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
      std::vector<double> alias_want = x, alias_got = x;
      double dot_want = 0, dot_got = 0;
      {
        const UseBackend use(Backend::kScalar);
        kernels::waxpby(alpha, x, beta, y, w_want);
        kernels::ddot(x, y, &dot_want);
        kernels::waxpby(alpha, alias_want, beta, y, alias_want);  // w == x
      }
      {
        const UseBackend use(b);
        kernels::waxpby(alpha, x, beta, y, w_got);
        kernels::ddot(x, y, &dot_got);
        kernels::waxpby(alpha, alias_got, beta, y, alias_got);
      }
      expect_bits_eq(w_want, w_got, "waxpby", b);
      expect_bits_eq(alias_want, alias_got, "waxpby aliased", b);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(dot_want),
                std::bit_cast<std::uint64_t>(dot_got))
          << "ddot backend=" << kernels::to_string(b) << " n=" << n;
    }
  }
}

struct GridShape {
  int nx, ny, nz;
};

// Shapes for the row gather: long y-runs of full rows (16^3, 8^3,
// 32x32x8), odd row lengths whose runs end in vector tails (17x5x3,
// 33x4x3), rows too short for a run (4^3, 5x7x4, 5x4x6; 4x3x3 has 2-wide
// interiors, 3x3x3 is all boundary classes), and axes of length 1 or 2,
// where one cell is first and last at once or no axis has an interior
// class (1^3, 2^3, 1x5x4, 5x1x4, 5x4x1, 9x2x3; 32x1x1 is one row long
// enough for a run whose only plane takes both halos).
constexpr GridShape kGatherShapes[] = {
    {16, 16, 16}, {8, 8, 8}, {32, 32, 8}, {17, 5, 3}, {33, 4, 3},
    {4, 4, 4},    {5, 7, 4}, {5, 4, 6},   {4, 3, 3},  {3, 3, 3},
    {1, 1, 1},    {2, 2, 2}, {1, 5, 4},   {5, 1, 4},  {5, 4, 1},
    {9, 2, 3},    {32, 1, 1}};

std::string shape_name(kernels::Stencil st, const GridShape& s, bool lower,
                       bool upper) {
  return std::string(st == kernels::Stencil::k27pt ? "27pt " : "7pt ") +
         std::to_string(s.nx) + "x" + std::to_string(s.ny) + "x" +
         std::to_string(s.nz) + " lower=" + std::to_string(lower) +
         " upper=" + std::to_string(upper);
}

/// Gathers rows [r0, r1) of `a` on backend b and compares them with the
/// same rows of `want` (the explicit-CSR walk over every row).
void expect_range_matches(const kernels::CsrMatrix& a,
                          std::span<const double> x,
                          const std::vector<double>& want, std::int64_t r0,
                          std::int64_t r1, Backend b, const std::string& what) {
  std::vector<double> got(static_cast<std::size_t>(r1 - r0), -7.0);
  {
    const UseBackend use(b);
    kernels::csr_row_gather(a, x, got, r0, r1);
  }
  const double* const w = want.data() + r0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(w[i]),
              std::bit_cast<std::uint64_t>(got[i]))
        << what << " backend=" << kernels::to_string(b) << " rows [" << r0
        << ", " << r1 << ") row " << r0 + static_cast<std::int64_t>(i);
  }
}

/// The explicit-CSR reference for every row of a shape.
std::vector<double> explicit_gather(kernels::Stencil st, const GridShape& s,
                                    bool lower, bool upper,
                                    std::span<const double> x) {
  return testing::build_explicit_grid_matrix(st, s.nx, s.ny, s.nz, lower,
                                             upper)
      .gather_all(x);
}

TEST(BackendBitwise, CsrRowGatherStructured) {
  // The table-only gather against the explicit-CSR walk. It batches whole
  // rows of one (z, y) class and overwrites their x-edge cells; partial
  // rows at r0/r1 keep a per-row walk. Ranges start and end at every
  // offset 0..nx of the first row, a mid-plane row and the last row, on
  // every backend. Every shape, short axes included, is table-only.
  support::Rng rng(0x2b0cULL);
  for (const GridShape& s : kGatherShapes) {
    for (const kernels::Stencil st :
         {kernels::Stencil::k7pt, kernels::Stencil::k27pt}) {
      for (const bool lower : {false, true}) {
        for (const bool upper : {false, true}) {
          const kernels::CsrMatrix a =
              kernels::build_grid_matrix(st, s.nx, s.ny, s.nz, lower, upper);
          ASSERT_NE(a.tables, nullptr);
          const std::vector<double> x = edge_vector(a.vector_len(), rng);
          const std::vector<double> want =
              explicit_gather(st, s, lower, upper, x);
          const std::string what = shape_name(st, s, lower, upper);
          const std::int64_t rows = a.rows();
          const std::int64_t nx = s.nx;
          const std::int64_t plane = nx * s.ny;
          // A window spans a partial row, a plane of full rows and another
          // partial row.
          const std::int64_t window = plane + 2 * nx;
          const std::int64_t mid_row = ((s.nz / 2) * s.ny + s.ny / 2) * nx;
          for (Backend b : all_backends()) {
            expect_range_matches(a, x, want, 0, rows, b, what);
            for (const std::int64_t anchor : {std::int64_t{0}, mid_row,
                                              rows - nx}) {
              for (std::int64_t k = 0; k <= nx; ++k) {
                const std::int64_t edge = anchor + k;
                expect_range_matches(a, x, want, edge,
                                     std::min(rows, edge + window), b, what);
                expect_range_matches(a, x, want,
                                     std::max<std::int64_t>(0, edge - window),
                                     edge, b, what);
              }
            }
          }
        }
      }
    }
  }
}

/// n doubles placed flush against an inaccessible page on one side (low:
/// x[-1] faults; high: x[n] faults), with a second guard page on the other
/// side of the mapping.
class GuardedVector {
 public:
  GuardedVector(std::size_t n, bool flush_high) : n_(n) {
    page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t data = (n * sizeof(double) + page_ - 1) / page_ * page_;
    bytes_ = data + 2 * page_;
    void* const m = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    REPMPI_CHECK(m != MAP_FAILED);
    base_ = static_cast<char*>(m);
    REPMPI_CHECK(mprotect(base_, page_, PROT_NONE) == 0);
    REPMPI_CHECK(mprotect(base_ + page_ + data, page_, PROT_NONE) == 0);
    data_ = flush_high
                ? reinterpret_cast<double*>(base_ + page_ + data) - n
                : reinterpret_cast<double*>(base_ + page_);
  }
  ~GuardedVector() { munmap(base_, bytes_); }
  GuardedVector(const GuardedVector&) = delete;
  GuardedVector& operator=(const GuardedVector&) = delete;

  std::span<double> span() { return {data_, n_}; }

 private:
  std::size_t n_, page_ = 0, bytes_ = 0;
  char* base_ = nullptr;
  double* data_ = nullptr;
};

TEST(BackendBitwise, CsrRowGatherNeverReadsOutsideTheMultiplicand) {
  // A run's edge lanes read the x-interior table one cell past the row;
  // next to the first and last element of x that would leave the vector.
  // With x flush against a PROT_NONE page such a read faults, in Release
  // builds too. Full range plus ranges that start or end in the first and
  // last rows, on every backend.
  support::Rng rng(0x9a4dULL);
  for (const GridShape& s : kGatherShapes) {
    for (const bool lower : {false, true}) {
      for (const bool upper : {false, true}) {
        const kernels::CsrMatrix a = kernels::build_grid_matrix(
            kernels::Stencil::k27pt, s.nx, s.ny, s.nz, lower, upper);
        const std::vector<double> init = edge_vector(a.vector_len(), rng);
        const std::vector<double> want =
            explicit_gather(kernels::Stencil::k27pt, s, lower, upper, init);
        const std::string what =
            shape_name(kernels::Stencil::k27pt, s, lower, upper);
        const std::int64_t rows = a.rows();
        for (const bool flush_high : {false, true}) {
          GuardedVector gx(a.vector_len(), flush_high);
          std::copy(init.begin(), init.end(), gx.span().begin());
          for (Backend b : all_backends()) {
            expect_range_matches(a, gx.span(), want, 0, rows, b, what);
            expect_range_matches(a, gx.span(), want, 0, rows - 1, b, what);
            expect_range_matches(a, gx.span(), want, 1, rows, b, what);
            // One grid row in from each end; all rows when there are
            // fewer than two grid rows.
            const std::int64_t in = rows >= 2 * s.nx ? s.nx : 0;
            expect_range_matches(a, gx.span(), want, in, rows - in, b, what);
          }
        }
      }
    }
  }
}

TEST(TableOnlyOperator, MatchesExplicitBuilder) {
  // The table-only form must reproduce the explicit-CSR form: the same
  // non-zero count (per-row counts: Sparse.TableNnzMatchesExplicitRowStart)
  // and every gathered bit on every backend this host runs.
  support::Rng rng(0x7ab1eULL);
  struct Shape {
    int nx, ny, nz;
  };
  const Shape shapes[] = {{5, 4, 6}, {3, 3, 3}, {4, 3, 3}, {32, 32, 64}};
  for (const kernels::Stencil st :
       {kernels::Stencil::k7pt, kernels::Stencil::k27pt}) {
    for (const bool lower : {false, true}) {
      for (const bool upper : {false, true}) {
        for (const Shape& s : shapes) {
          const kernels::CsrMatrix a =
              kernels::build_grid_matrix(st, s.nx, s.ny, s.nz, lower, upper);
          const testing::ExplicitGridMatrix ref =
              testing::build_explicit_grid_matrix(st, s.nx, s.ny, s.nz, lower,
                                                  upper);
          ASSERT_NE(a.tables, nullptr);
          ASSERT_EQ(a.rows(), ref.rows());
          EXPECT_EQ(a.nnz(), static_cast<std::int64_t>(ref.col.size()))
              << "stencil=" << static_cast<int>(st) << " lower=" << lower
              << " upper=" << upper << " shape=" << s.nx << "x" << s.ny
              << "x" << s.nz;

          const std::vector<double> x = edge_vector(a.vector_len(), rng);
          const std::vector<double> want = ref.gather_all(x);
          for (Backend b : all_backends()) {
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
  ASSERT_NE(cached->tables, nullptr);
  EXPECT_EQ(cached->nnz(), 94 * 94 * 192);
}

TEST(RowSums, EqualSparsemvOfOnesBitwise) {
  // The HPCCG and AMG right-hand side A * ones comes from row_sums: it must
  // be sparsemv's product with an all-ones vector (halo planes included) to
  // the bit, and the explicit-CSR walk's, and charge sparsemv's cost, for
  // every shape (axes of length 1 and 2 included), with and without either
  // neighbor, on every backend this host runs.
  struct Shape {
    int nx, ny, nz;
  };
  const Shape shapes[] = {{3, 3, 3}, {5, 4, 6}, {17, 5, 3}, {32, 32, 8},
                          {2, 3, 4}, {1, 1, 1}, {4, 2, 3},  {8, 8, 2},
                          {2, 2, 2}, {1, 5, 4}, {5, 1, 4},  {5, 4, 1},
                          {9, 2, 3}, {32, 1, 1}};
  for (const kernels::Stencil st :
       {kernels::Stencil::k7pt, kernels::Stencil::k27pt}) {
    for (const bool lower : {false, true}) {
      for (const bool upper : {false, true}) {
        for (const Shape& s : shapes) {
          const kernels::CsrMatrix a =
              kernels::build_grid_matrix(st, s.nx, s.ny, s.nz, lower, upper);
          ASSERT_NE(a.tables, nullptr);
          std::vector<double> sums(static_cast<std::size_t>(a.rows()), -7.0);
          const net::ComputeCost cost = kernels::row_sums(a, sums);
          const std::vector<double> ones(a.vector_len(), 1.0);
          expect_bits_eq(testing::build_explicit_grid_matrix(
                             st, s.nx, s.ny, s.nz, lower, upper)
                             .gather_all(ones),
                         sums, "explicit row sums", Backend::kScalar);
          for (Backend b : all_backends()) {
            const UseBackend use(b);
            std::vector<double> want(sums.size(), -7.0);
            const net::ComputeCost want_cost = kernels::sparsemv(a, ones, want);
            expect_bits_eq(want, sums, "row sums", b);
            EXPECT_EQ(cost.flops, want_cost.flops);
            EXPECT_EQ(cost.mem_bytes, want_cost.mem_bytes);
          }
        }
      }
    }
  }
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
