// Numeric correctness tests for the computational kernels: vector ops
// against closed forms, CSR structure of the grid operators, sparsemv
// against a dense reference, stencil properties, and PIC invariants
// (charge conservation, determinism, periodic wrap).

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "explicit_grid_matrix.hpp"
#include "kernels/pic.hpp"
#include "kernels/sparse.hpp"
#include "kernels/stencil.hpp"
#include "kernels/vector_ops.hpp"

namespace repmpi::kernels {
namespace {

using testing::build_explicit_grid_matrix;
using testing::ExplicitGridMatrix;

TEST(VectorOps, Waxpby) {
  std::vector<double> x{1, 2, 3}, y{10, 20, 30}, w(3);
  const auto cost = waxpby(2.0, x, 0.5, y, w);
  EXPECT_DOUBLE_EQ(w[0], 7.0);
  EXPECT_DOUBLE_EQ(w[1], 14.0);
  EXPECT_DOUBLE_EQ(w[2], 21.0);
  EXPECT_DOUBLE_EQ(cost.flops, 6.0);
}

TEST(VectorOps, Ddot) {
  std::vector<double> x{1, 2, 3}, y{4, 5, 6};
  double out = 0;
  ddot(x, y, &out);
  EXPECT_DOUBLE_EQ(out, 32.0);
}

TEST(Sparse, InteriorRowHas27Nonzeros) {
  const CsrMatrix m = build_grid_matrix(Stencil::k27pt, 5, 5, 5, true, true);
  EXPECT_EQ(m.rows(), 125);
  // Center row (2,2,2).
  const std::int64_t r = (2 * 5 + 2) * 5 + 2;
  EXPECT_EQ(m.nnz(r, r + 1), 27);
}

TEST(Sparse, CornerRowTruncated) {
  // Corner of the global domain (no lower neighbor): 2*2*2 = 8 couplings.
  const CsrMatrix m = build_grid_matrix(Stencil::k27pt, 5, 5, 5, false, true);
  EXPECT_EQ(m.nnz(0, 1), 8);
}

TEST(Sparse, SevenPointStructure) {
  const CsrMatrix m = build_grid_matrix(Stencil::k7pt, 4, 4, 4, true, true);
  const std::int64_t r = (2 * 4 + 2) * 4 + 2;  // interior row
  EXPECT_EQ(m.nnz(r, r + 1), 7);
}

TEST(Sparse, TableNnzMatchesExplicitRowStart) {
  // Every operator counts its non-zeros from the class tables; the
  // explicit builder's row_start is the independent reference. Every single
  // row, every prefix, and every range between two grid-row boundaries
  // (which include every plane boundary). Shapes with an axis of length 1
  // or 2 are table-only too.
  struct Shape {
    int nx, ny, nz;
  };
  const Shape shapes[] = {{4, 4, 4},  {5, 7, 4}, {17, 5, 3}, {32, 32, 8},
                          {1, 1, 1},  {2, 2, 2}, {1, 5, 4},  {5, 1, 4},
                          {5, 4, 1},  {9, 2, 3}, {32, 1, 1}, {2, 1, 2}};
  for (const Stencil st : {Stencil::k7pt, Stencil::k27pt}) {
    for (const bool lower : {false, true}) {
      for (const bool upper : {false, true}) {
        for (const Shape& s : shapes) {
          const CsrMatrix a =
              build_grid_matrix(st, s.nx, s.ny, s.nz, lower, upper);
          const ExplicitGridMatrix e =
              build_explicit_grid_matrix(st, s.nx, s.ny, s.nz, lower, upper);
          ASSERT_NE(a.tables, nullptr);
          ASSERT_EQ(a.rows(), e.rows());
          const auto ref = [&e](std::int64_t r0, std::int64_t r1) {
            return e.nnz(r0, r1);
          };
          const std::string what =
              "stencil=" + std::to_string(static_cast<int>(st)) +
              " lower=" + std::to_string(lower) +
              " upper=" + std::to_string(upper) + " shape=" +
              std::to_string(s.nx) + "x" + std::to_string(s.ny) + "x" +
              std::to_string(s.nz);
          ASSERT_EQ(a.nnz(), ref(0, e.rows())) << what;
          for (std::int64_t r = 0; r < a.rows(); ++r) {
            ASSERT_EQ(a.nnz(r, r + 1), ref(r, r + 1)) << what << " r=" << r;
            ASSERT_EQ(a.nnz(0, r), ref(0, r)) << what << " r=" << r;
          }
          for (std::int64_t r0 = 0; r0 <= a.rows(); r0 += s.nx) {
            for (std::int64_t r1 = r0; r1 <= a.rows(); r1 += s.nx) {
              ASSERT_EQ(a.nnz(r0, r1), ref(r0, r1))
                  << what << " [" << r0 << ", " << r1 << ")";
            }
          }
        }
      }
    }
  }
}

TEST(Sparse, BoundaryRowsReferenceHalo) {
  const CsrMatrix m = build_grid_matrix(Stencil::k7pt, 3, 3, 2, true, true);
  // Row (1,1,0) (z class 0, y and x class 1) must reference the bottom halo
  // at index interior + y*nx + x.
  bool found_halo = false;
  const std::int64_t r = (0 * 3 + 1) * 3 + 1;
  const StencilTables::Table& t = m.tables->t[0][1][1];
  for (int k = 0; k < t.npts; ++k) {
    const auto c = static_cast<std::size_t>(r + t.off[k]);
    if (c == m.halo_bottom() + 1 * 3 + 1) found_halo = true;
    EXPECT_LT(c, m.vector_len());
  }
  EXPECT_TRUE(found_halo);
}

TEST(Sparse, SpmvMatchesDenseReference) {
  const CsrMatrix m = build_grid_matrix(Stencil::k27pt, 4, 3, 3, true, false);
  std::vector<double> x(m.vector_len());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = std::sin(static_cast<double>(i) * 0.7);
  std::vector<double> y(static_cast<std::size_t>(m.rows()), 0.0);
  sparsemv(m, x, y);

  // Dense reference from the explicit-CSR form.
  const std::vector<double> want =
      build_explicit_grid_matrix(Stencil::k27pt, 4, 3, 3, true, false)
          .gather_all(x);
  ASSERT_EQ(want.size(), y.size());
  for (std::size_t r = 0; r < y.size(); ++r) EXPECT_NEAR(y[r], want[r], 1e-12);
}

TEST(Sparse, SpmvRangeEqualsFull) {
  const CsrMatrix m = build_grid_matrix(Stencil::k27pt, 4, 4, 4, true, true);
  std::vector<double> x(m.vector_len(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = 0.01 * i;
  std::vector<double> full(static_cast<std::size_t>(m.rows()));
  std::vector<double> ranged(static_cast<std::size_t>(m.rows()));
  sparsemv(m, x, full);
  sparsemv_range(m, x, ranged, 0, m.rows() / 2);
  sparsemv_range(m, x, ranged, m.rows() / 2, m.rows());
  EXPECT_EQ(full, ranged);
}

TEST(Sparse, DiagonalDominance) {
  // Every row of a 4^3 operator belongs to one of the 27 boundary classes,
  // and each class's table holds that row's weights.
  const CsrMatrix m = build_grid_matrix(Stencil::k27pt, 4, 4, 4, true, true);
  for (const auto& plane_tabs : m.tables->t)
    for (const auto& row_tabs : plane_tabs)
      for (const StencilTables::Table& t : row_tabs) {
        double diag = 0, offsum = 0;
        for (int k = 0; k < t.npts; ++k) {
          if (t.w[k] > 0) diag = t.w[k];
          else offsum += -t.w[k];
        }
        EXPECT_GT(diag, offsum);  // strictly dominant: boundary rows drop -1s
      }
}

TEST(Stencil, ConstantFieldIsFixedPoint) {
  Grid3D in(4, 4, 4), out(4, 4, 4);
  for (double& v : in.data) v = 3.5;  // including halos
  stencil27(in, out);
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 4; ++y)
      for (int x = 0; x < 4; ++x) EXPECT_DOUBLE_EQ(out.at(x, y, z), 3.5);
}

TEST(Stencil, AverageSmoothsPeak) {
  Grid3D in(5, 5, 5), out(5, 5, 5);
  in.at(2, 2, 2) = 27.0;
  stencil27(in, out);
  EXPECT_DOUBLE_EQ(out.at(2, 2, 2), 1.0);
  EXPECT_DOUBLE_EQ(out.at(1, 2, 2), 1.0);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 0.0);
}

TEST(Stencil, GridSumRangeAdds) {
  Grid3D g(3, 3, 4);
  for (int z = 0; z < 4; ++z)
    for (int y = 0; y < 3; ++y)
      for (int x = 0; x < 3; ++x) g.at(x, y, z) = 1.0 + z;
  double total = 0, lower = 0, upper = 0;
  grid_sum_range(g, 0, 4, &total);
  grid_sum_range(g, 0, 2, &lower);
  grid_sum_range(g, 2, 4, &upper);
  EXPECT_DOUBLE_EQ(total, 9.0 * (1 + 2 + 3 + 4));
  EXPECT_DOUBLE_EQ(lower + upper, total);
}

TEST(Pic, InitIsDeterministic) {
  Particles a, b;
  init_particles(a, 1000, 16.0, 16.0, support::Rng(42));
  init_particles(b, 1000, 16.0, 16.0, support::Rng(42));
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.vy, b.vy);
  for (std::size_t i = 0; i < a.count(); ++i) {
    EXPECT_GE(a.x[i], 0.0);
    EXPECT_LT(a.x[i], 16.0);
  }
}

TEST(Pic, ChargeDepositionConservesCharge) {
  Particles p;
  init_particles(p, 500, 8.0, 8.0, support::Rng(7));
  Field2D grid(8, 8);
  charge_deposit(p, 0, p.count(), 8.0, 8.0, grid);
  const double total =
      std::accumulate(grid.v.begin(), grid.v.end(), 0.0);
  // 4 ring points x 0.25 weight = 1 unit of charge per particle.
  EXPECT_NEAR(total, 500.0, 1e-9);
}

TEST(Pic, ChargeDepositRangesCompose) {
  Particles p;
  init_particles(p, 400, 8.0, 8.0, support::Rng(9));
  Field2D whole(8, 8), a(8, 8), b(8, 8);
  charge_deposit(p, 0, 400, 8.0, 8.0, whole);
  charge_deposit(p, 0, 200, 8.0, 8.0, a);
  charge_deposit(p, 200, 400, 8.0, 8.0, b);
  for (std::size_t i = 0; i < whole.v.size(); ++i)
    EXPECT_NEAR(whole.v[i], a.v[i] + b.v[i], 1e-9);
}

TEST(Pic, PushKeepsParticlesInDomain) {
  Particles p;
  init_particles(p, 300, 8.0, 8.0, support::Rng(5));
  Field2D charge(8, 8), ex(8, 8), ey(8, 8);
  charge_deposit(p, 0, p.count(), 8.0, 8.0, charge);
  field_solve(charge, ex, ey);
  for (int step = 0; step < 10; ++step)
    push(p.x, p.y, p.vx, p.vy, p.rho, 8.0, 8.0, 0.2, ex, ey);
  for (std::size_t i = 0; i < p.count(); ++i) {
    EXPECT_GE(p.x[i], 0.0);
    EXPECT_LT(p.x[i], 8.0);
    EXPECT_GE(p.y[i], 0.0);
    EXPECT_LT(p.y[i], 8.0);
  }
}

TEST(Pic, PushIsDeterministic) {
  auto run = [] {
    Particles p;
    init_particles(p, 200, 8.0, 8.0, support::Rng(3));
    Field2D charge(8, 8), ex(8, 8), ey(8, 8);
    charge_deposit(p, 0, p.count(), 8.0, 8.0, charge);
    field_solve(charge, ex, ey);
    push(p.x, p.y, p.vx, p.vy, p.rho, 8.0, 8.0, 0.1, ex, ey);
    return p.x;
  };
  EXPECT_EQ(run(), run());
}

TEST(Pic, FieldSolveProducesOpposingGradients) {
  // field_solve computes E = grad(phi) of the smoothed blob: the gradient
  // points *toward* the peak, so it flips sign across the blob.
  Field2D charge(16, 16), ex(16, 16), ey(16, 16);
  charge.at(8, 8) = 10.0;
  field_solve(charge, ex, ey);
  EXPECT_LT(ex.at(9, 8), 0.0);
  EXPECT_GT(ex.at(7, 8), 0.0);
  EXPECT_LT(ey.at(8, 9), 0.0);
  EXPECT_GT(ey.at(8, 7), 0.0);
}

TEST(Costs, KernelCostConstantsAreConsistent) {
  // sparsemv per output byte must be much more expensive than waxpby per
  // output byte (the Fig. 5a argument), and ddot's output is O(1).
  const auto wax = waxpby_cost(1000);
  const auto dot = ddot_cost(1000);
  const auto smv = sparsemv_cost(1000, 27000);
  EXPECT_GT(smv.flops, 20.0 * wax.flops);
  EXPECT_GT(smv.mem_bytes, 10.0 * wax.mem_bytes);
  EXPECT_DOUBLE_EQ(dot.flops, wax.flops);
}

}  // namespace
}  // namespace repmpi::kernels
