#include "kernels/sparse.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/backend_detail.hpp"
#include "support/compute_cache.hpp"
#include "support/error.hpp"

namespace repmpi::kernels {

namespace {

/// Boundary class of coordinate i on an axis of length n: 0 first, 2 last,
/// 1 between (the StencilTables index). At n == 1 the one coordinate is 0.
int boundary_class(std::int64_t i, std::int64_t n) {
  return i == 0 ? 0 : i == n - 1 ? 2 : 1;
}

/// Sum of the first i terms of an axis sequence c[0], c[1] (n - 2 times),
/// c[2], for 0 <= i <= n: per-class counts along one axis. At n == 1 the
/// sequence is c[0] alone.
std::int64_t axis_prefix(std::int64_t n, std::int64_t i,
                         const std::int64_t (&c)[3]) {
  if (i == 0) return 0;
  if (i == n) return n == 1 ? c[0] : c[0] + (n - 2) * c[1] + c[2];
  return c[0] + (i - 1) * c[1];
}

std::shared_ptr<const StencilTables> build_stencil_tables(
    Stencil stencil, std::int64_t nx, std::int64_t ny, std::int64_t nz,
    bool has_lower, bool has_upper) {
  const std::int64_t plane = nx * ny;
  const std::int64_t rows = plane * nz;
  const double diag = diag_weight(stencil);
  auto tables = std::make_shared<StencilTables>();

  // Point list in emit order: k27pt is the dz/dy/dx triple loop, k7pt is
  // center, x-1, x+1, y-1, y+1, z-1, z+1.
  struct Pt {
    int dx, dy, dz;
  };
  Pt pts[27];
  int npts = 0;
  if (stencil == Stencil::k27pt) {
    for (int dz = -1; dz <= 1; ++dz)
      for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx) pts[npts++] = {dx, dy, dz};
  } else {
    pts[npts++] = {0, 0, 0};
    pts[npts++] = {-1, 0, 0};
    pts[npts++] = {+1, 0, 0};
    pts[npts++] = {0, -1, 0};
    pts[npts++] = {0, +1, 0};
    pts[npts++] = {0, 0, -1};
    pts[npts++] = {0, 0, +1};
  }

  // Class 2 is an axis's last coordinate; on a 1-long axis class 0 is too.
  const auto last = [](int c, std::int64_t n) { return c == 2 || n == 1; };
  for (int zc = 0; zc < 3; ++zc) {
    for (int yc = 0; yc < 3; ++yc) {
      for (int xc = 0; xc < 3; ++xc) {
        StencilTables::Table& t = tables->t[zc][yc][xc];
        for (int j = 0; j < npts; ++j) {
          const auto [dx, dy, dz] = pts[j];
          if ((xc == 0 && dx < 0) || (last(xc, nx) && dx > 0)) continue;
          if ((yc == 0 && dy < 0) || (last(yc, ny) && dy > 0)) continue;
          std::int64_t zoff;
          if (dz < 0 && zc == 0) {
            if (!has_lower) continue;
            zoff = rows;  // bottom halo plane
          } else if (dz > 0 && last(zc, nz)) {
            if (!has_upper) continue;
            zoff = 2 * plane;  // top halo plane
          } else {
            zoff = dz * plane;
          }
          t.off[t.npts] = zoff + dy * nx + dx;
          t.w[t.npts] =
              (dx == 0 && dy == 0 && dz == 0) ? diag : -1.0;
          ++t.npts;
        }
      }
    }
  }
  for (int zc = 0; zc < 3; ++zc) {
    for (int yc = 0; yc < 3; ++yc) {
      const auto& row_tabs = tables->t[zc][yc];
      const std::int64_t cell[3] = {row_tabs[0].npts, row_tabs[1].npts,
                                    row_tabs[2].npts};
      tables->row_nnz[zc][yc] = axis_prefix(nx, nx, cell);
    }
    tables->plane_nnz[zc] = axis_prefix(ny, ny, tables->row_nnz[zc]);
  }
  return tables;
}

/// Non-zeros of rows [0, r): whole planes, then whole grid rows of r's
/// plane, then cells of r's grid row.
std::int64_t table_nnz_before(const CsrMatrix& a, std::int64_t r) {
  const std::int64_t nx = a.nx, ny = a.ny, nz = a.nz;
  const StencilTables& st = *a.tables;
  const std::int64_t plane = nx * ny;
  const std::int64_t z = r / plane;
  const std::int64_t rem = r - z * plane;
  std::int64_t n = axis_prefix(nz, z, st.plane_nnz);
  if (rem == 0) return n;  // also r == rows: z == nz has no class
  const int zc = boundary_class(z, nz);
  const std::int64_t y = rem / nx;
  const std::int64_t x = rem - y * nx;
  n += axis_prefix(ny, y, st.row_nnz[zc]);
  const auto& row_tabs = st.t[zc][boundary_class(y, ny)];
  const std::int64_t cell[3] = {row_tabs[0].npts, row_tabs[1].npts,
                                row_tabs[2].npts};
  return n + axis_prefix(nx, x, cell);
}

}  // namespace

std::int64_t CsrMatrix::nnz(std::int64_t r0, std::int64_t r1) const {
  if (r0 == r1) return 0;
  return table_nnz_before(*this, r1) - table_nnz_before(*this, r0);
}

CsrMatrix build_grid_matrix(Stencil stencil, int nx, int ny, int nz,
                            bool has_lower, bool has_upper) {
  REPMPI_CHECK(nx > 0 && ny > 0 && nz > 0);
  return {nx, ny, nz, has_lower, has_upper, stencil,
          build_stencil_tables(stencil, nx, ny, nz, has_lower, has_upper)};
}

std::shared_ptr<const CsrMatrix> grid_matrix_cached(Stencil stencil, int nx,
                                                    int ny, int nz,
                                                    bool has_lower,
                                                    bool has_upper) {
  using Key = std::tuple<int, int, int, int, bool, bool>;
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = std::hash<int>{}(std::get<0>(k));
      h = support::hash_combine(h, std::hash<int>{}(std::get<1>(k)));
      h = support::hash_combine(h, std::hash<int>{}(std::get<2>(k)));
      h = support::hash_combine(h, std::hash<int>{}(std::get<3>(k)));
      h = support::hash_combine(h, std::hash<bool>{}(std::get<4>(k)));
      return support::hash_combine(h, std::hash<bool>{}(std::get<5>(k)));
    }
  };
  static support::FifoMemo<Key, CsrMatrix, KeyHash> memo(12);

  return memo.get_or_build(
      Key{static_cast<int>(stencil), nx, ny, nz, has_lower, has_upper}, [&] {
        return std::make_shared<const CsrMatrix>(
            build_grid_matrix(stencil, nx, ny, nz, has_lower, has_upper));
      });
}

namespace {

/// Shortest grid row worth a run-level gather. A run spends 2 of its nx
/// lanes per row on edge cells it then recomputes, and on small grids
/// most runs are a single row. Measured on a 4-core x86-64 VM with AVX2
/// (two runs, full-range gathers over n^3 cubes with both halo
/// neighbours), run path / per-row walk time: 27-point 1.18-1.24 at
/// n = 4, 0.96-1.05 at 6 and 7, 0.70-0.73 at 8, 0.55-0.59 at 16;
/// 7-point 1.06-1.09 at 4, 1.07-1.23 at 6, 0.63-0.66 at 8, 0.50 at 16.
constexpr std::int64_t kMinRunRow = 8;

/// The gather over rows [r0, r1), on a given backend.
///
/// Rows are gathered per run: the full grid rows of one
/// (z, y) boundary class (one row per boundary plane row, all interior rows
/// of a plane) go through a single ops.gather_table call with the class's
/// x-interior table, then each row's x = 0 and x = nx-1 cells are
/// overwritten with their own edge-class chain. Every output cell ends up
/// with exactly its class table's accumulation order. Rows keep a per-row
/// walk (edge cells scalar, x = 1..nx-2 batched) where a run cannot apply:
/// partial rows at r0/r1, rows shorter than kMinRunRow, and rows whose
/// edge lanes would read the interior table outside [0, vector_len).
void gather_impl(const CsrMatrix& a, const double* xp, double* out,
                 std::int64_t r0, std::int64_t r1, const BackendOps& ops) {
  const std::int64_t nx = a.nx, ny = a.ny, nz = a.nz;
  const StencilTables& st = *a.tables;
  const std::int64_t plane = nx * ny;
  const auto len = static_cast<std::int64_t>(a.vector_len());
  // Offset extent of each (z, y) class's x-interior table, filled on first
  // use: cell r reads x[r + lo, r + hi].
  struct Extent {
    std::int64_t lo = 0, hi = 0;
    bool set = false;
  };
  Extent extent[3][3];
  std::int64_t r = r0;
  while (r < r1) {
    const std::int64_t z = r / plane;
    const std::int64_t rem = r - z * plane;
    const std::int64_t yy = rem / nx;
    const std::int64_t xx = rem - yy * nx;
    const int zc = boundary_class(z, nz), yc = boundary_class(yy, ny);
    const StencilTables::Table* const row_tabs = st.t[zc][yc];
    const std::int64_t row_base = r - xx;
    std::int64_t run_rows = 0;
    if (xx == 0 && nx >= kMinRunRow) {
      Extent& ext = extent[zc][yc];
      if (!ext.set) {
        const StencilTables::Table& t = row_tabs[1];
        ext.lo = ext.hi = t.off[0];
        for (int k = 1; k < t.npts; ++k) {
          ext.lo = std::min(ext.lo, t.off[k]);
          ext.hi = std::max(ext.hi, t.off[k]);
        }
        ext.set = true;
      }
      const std::int64_t class_rows = yc == 1 ? ny - 1 - yy : 1;
      const std::int64_t fit = len - ext.hi - r;  // cells [r, r + fit) in range
      if (r + ext.lo >= 0 && fit > 0) {
        run_rows = std::min({class_rows, (r1 - r) / nx, fit / nx});
      }
    }
    if (run_rows == 0) {
      const std::int64_t row_end = std::min(r1, row_base + nx);
      if (r == row_base) {
        out[r - r0] = detail::gather_one_row(xp, r, row_tabs[0]);
        ++r;
      }
      const std::int64_t mid_end = std::min(row_end, row_base + nx - 1);
      if (r < mid_end) {
        ops.gather_table(xp, out + (r - r0), r, mid_end, row_tabs[1]);
        r = mid_end;
      }
      if (r < row_end) out[r - r0] = detail::gather_one_row(xp, r, row_tabs[2]);
      r = row_end;
      continue;
    }
    const std::int64_t run_end = r + run_rows * nx;
    ops.gather_table(xp, out + (r - r0), r, run_end, row_tabs[1]);
    for (std::int64_t b = r; b < run_end; b += nx) {
      out[b - r0] = detail::gather_one_row(xp, b, row_tabs[0]);
      out[b + nx - 1 - r0] =
          detail::gather_one_row(xp, b + nx - 1, row_tabs[2]);
    }
    r = run_end;
  }
}

}  // namespace

void csr_row_gather(const CsrMatrix& a, std::span<const double> x,
                    std::span<double> acc, std::int64_t r0, std::int64_t r1) {
  REPMPI_CHECK(r0 >= 0 && r1 <= a.rows() && r0 <= r1);
  REPMPI_CHECK(acc.size() >= static_cast<std::size_t>(r1 - r0));
  REPMPI_CHECK(x.size() >= a.vector_len());  // halo strides read past rows
  const KernelTimer timer(KernelFamily::kSpmv);
  const BackendOps& ops = active_ops();
  gather_impl(a, x.data(), acc.data(), r0, r1, ops);
  if (ops.kind != Backend::kScalar && verify_backend_active()) {
    std::vector<double> want(static_cast<std::size_t>(r1 - r0));
    gather_impl(a, x.data(), want.data(), r0, r1,
                backend_ops(Backend::kScalar));
    verify_backend_match("csr_row_gather", acc.data(), want.data(),
                         want.size());
  }
}

net::ComputeCost sparsemv_range(const CsrMatrix& a, std::span<const double> x,
                                std::span<double> y, std::int64_t r0,
                                std::int64_t r1) {
  REPMPI_CHECK(x.size() >= a.vector_len());
  REPMPI_CHECK(r0 >= 0 && r1 <= a.rows() && r0 <= r1);
  csr_row_gather(a, x, y.subspan(static_cast<std::size_t>(r0),
                                 static_cast<std::size_t>(r1 - r0)),
                 r0, r1);
  return sparsemv_cost(r1 - r0, a.nnz(r0, r1));
}

net::ComputeCost row_sums(const CsrMatrix& a, std::span<double> out) {
  const std::int64_t rows = a.rows();
  REPMPI_CHECK(out.size() >= static_cast<std::size_t>(rows));
  // Every row of a boundary class sums the same weights in the same order.
  const auto& t = a.tables->t;
  double sum[3][3][3];
  for (int zc = 0; zc < 3; ++zc)
    for (int yc = 0; yc < 3; ++yc)
      for (int xc = 0; xc < 3; ++xc) {
        double s = 0.0;
        for (int k = 0; k < t[zc][yc][xc].npts; ++k) s += t[zc][yc][xc].w[k];
        sum[zc][yc][xc] = s;
      }
  const std::int64_t nx = a.nx;
  double* row = out.data();
  for (int z = 0; z < a.nz; ++z) {
    const auto& plane_sum = sum[boundary_class(z, a.nz)];
    for (int y = 0; y < a.ny; ++y, row += nx) {
      const double* const s = plane_sum[boundary_class(y, a.ny)];
      row[0] = s[0];
      if (nx == 1) continue;
      std::fill(row + 1, row + nx - 1, s[1]);
      row[nx - 1] = s[2];
    }
  }
  return sparsemv_cost(rows, a.nnz());
}

}  // namespace repmpi::kernels
