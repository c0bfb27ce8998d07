#pragma once

// The reference the kernel tests check grid operators against: the same
// operator as kernels::build_grid_matrix, built the plain way, with explicit
// CSR entries (row_start/col/val) enumerated coupling by coupling, plus the
// general CSR row walk over them. It shares no code with the class tables,
// so agreement in non-zero counts, gathered bits and row sums is an
// independent check of the table-only form.

#include <cstdint>
#include <span>
#include <vector>

#include "kernels/sparse.hpp"

namespace repmpi::testing {

struct ExplicitGridMatrix {
  std::vector<std::int64_t> row_start;  ///< rows + 1 entries
  std::vector<std::int32_t> col;  ///< interior index, or into a halo plane
  std::vector<double> val;

  std::int64_t rows() const {
    return static_cast<std::int64_t>(row_start.size()) - 1;
  }
  /// Non-zeros of rows [r0, r1).
  std::int64_t nnz(std::int64_t r0, std::int64_t r1) const {
    return row_start[static_cast<std::size_t>(r1)] -
           row_start[static_cast<std::size_t>(r0)];
  }

  /// Every row's Σ_k val[k] * x[col[k]] over its entries in order: the
  /// general CSR walk.
  std::vector<double> gather_all(std::span<const double> x) const {
    std::vector<double> out(static_cast<std::size_t>(rows()));
    for (std::size_t r = 0; r < out.size(); ++r) {
      double s = 0.0;
      for (auto k = static_cast<std::size_t>(row_start[r]);
           k < static_cast<std::size_t>(row_start[r + 1]); ++k)
        s += val[k] * x[static_cast<std::size_t>(col[k])];
      out[r] = s;
    }
    return out;
  }
};

/// Enumerates every row's couplings in CSR entry order (the k27pt dz/dy/dx
/// triple loop; k7pt center, x-1, x+1, y-1, y+1, z-1, z+1), dropping
/// out-of-domain x/y couplings and z couplings past a missing neighbor.
inline ExplicitGridMatrix build_explicit_grid_matrix(kernels::Stencil stencil,
                                                     int nx, int ny, int nz,
                                                     bool has_lower,
                                                     bool has_upper) {
  ExplicitGridMatrix m;
  const std::int64_t plane = static_cast<std::int64_t>(nx) * ny;
  const std::int64_t rows = plane * nz;
  const std::int64_t halo_bottom = rows;
  const std::int64_t halo_top = rows + plane;
  const double diag = kernels::diag_weight(stencil);
  m.row_start.reserve(static_cast<std::size_t>(rows) + 1);
  m.row_start.push_back(0);
  for (int z = 0; z < nz; ++z) {
    for (int y = 0; y < ny; ++y) {
      for (int x = 0; x < nx; ++x) {
        const auto emit = [&](int cx, int cy, int cz, double v) {
          if (cx < 0 || cx >= nx || cy < 0 || cy >= ny) return;
          const std::int64_t in_plane =
              static_cast<std::int64_t>(cy) * nx + cx;
          std::int64_t c;
          if (cz < 0) {
            if (!has_lower) return;
            c = halo_bottom + in_plane;
          } else if (cz >= nz) {
            if (!has_upper) return;
            c = halo_top + in_plane;
          } else {
            c = cz * plane + in_plane;
          }
          m.col.push_back(static_cast<std::int32_t>(c));
          m.val.push_back(v);
        };
        if (stencil == kernels::Stencil::k27pt) {
          for (int dz = -1; dz <= 1; ++dz)
            for (int dy = -1; dy <= 1; ++dy)
              for (int dx = -1; dx <= 1; ++dx) {
                const bool self = dx == 0 && dy == 0 && dz == 0;
                emit(x + dx, y + dy, z + dz, self ? diag : -1.0);
              }
        } else {
          emit(x, y, z, diag);
          emit(x - 1, y, z, -1.0);
          emit(x + 1, y, z, -1.0);
          emit(x, y - 1, z, -1.0);
          emit(x, y + 1, z, -1.0);
          emit(x, y, z - 1, -1.0);
          emit(x, y, z + 1, -1.0);
        }
        m.row_start.push_back(static_cast<std::int64_t>(m.col.size()));
      }
    }
  }
  return m;
}

}  // namespace repmpi::testing
