#pragma once

// CSR sparse matrices for grid-based operators (HPCCG's 27-point matrix, the
// AMG proxy's 27-/7-point stencils) with a 1-D domain decomposition along z.
//
// Vector layout per logical rank: the local nx*ny*nz interior values first,
// then the bottom halo plane (nx*ny values from the z-1 neighbor), then the
// top halo plane. Column indices of boundary rows point into the halo
// region, so sparsemv needs no index translation after a halo exchange.

#include <cstdint>
#include <memory>
#include <span>

#include "net/machine_model.hpp"

namespace repmpi::kernels {

/// Stencil shape for the grid operators.
enum class Stencil { k7pt, k27pt };

/// Diagonal weight of a grid operator: the stencil size (27 or 7). Every
/// off-diagonal is -1, so the operator is diagonally dominant SPD.
inline double diag_weight(Stencil stencil) {
  return stencil == Stencil::k27pt ? 27.0 : 7.0;
}

/// Per-matrix stride tables of a grid operator: one (offset, weight) list
/// per (z, y, x) boundary-class combination, entries in CSR entry order
/// (the k27pt dz/dy/dx triple loop; k7pt center, x-1, x+1, y-1, y+1, z-1,
/// z+1): out-of-domain x/y couplings are dropped, z couplings off the
/// bottom (top) plane become the constant halo strides rows + dy*nx + dx
/// (2*plane + dy*nx + dx) when a neighbor exists. Class 0 is an axis's
/// first coordinate, 2 its last and 1 those between; on an axis of length
/// 1 the one coordinate is class 0 and drops (or, along z, takes the halo
/// of) both neighbours. Built once per matrix; ~11 KiB. Public because the
/// kernel backends (kernels/backend.hpp) take one boundary-class Table as
/// the unit of batched row execution: csr_row_gather hands a whole run of
/// rows of one (z, y) class to the class's x-interior table and then
/// recomputes the x-edge cells with their own tables.
struct StencilTables {
  struct Table {
    std::int64_t off[27];
    double w[27];
    int npts = 0;
  };
  Table t[3][3][3];  // [zclass][yclass][xclass]
  /// Non-zeros of one grid row of each (z, y) class and of one plane of
  /// each z class: what CsrMatrix::nnz adds up.
  std::int64_t row_nnz[3][3] = {};
  std::int64_t plane_nnz[3] = {};
};

/// A grid operator held as its shape and its class tables alone: no
/// per-entry arrays. csr_row_gather walks the tables in CSR entry order,
/// and rows() and nnz(r0, r1), the virtual-time cost inputs
/// (sparsemv_range, the AMG Jacobi cost), come from the class tables' point
/// counts in O(1).
struct CsrMatrix {
  int nx = 0, ny = 0, nz = 0;
  bool has_lower = false, has_upper = false;
  Stencil stencil = Stencil::k7pt;
  std::shared_ptr<const StencilTables> tables;

  std::int64_t rows() const { return static_cast<std::int64_t>(interior()); }
  /// Non-zeros of rows [r0, r1), 0 <= r0 <= r1 <= rows().
  std::int64_t nnz(std::int64_t r0, std::int64_t r1) const;
  std::int64_t nnz() const { return nnz(0, rows()); }

  std::size_t interior() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
           static_cast<std::size_t>(nz);
  }
  std::size_t plane() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  }
  /// Length a multiplicand vector must have: interior + two halo planes.
  std::size_t vector_len() const { return interior() + 2 * plane(); }
  std::size_t halo_bottom() const { return interior(); }
  std::size_t halo_top() const { return interior() + plane(); }
};

/// Builds the local operator for one logical rank of a z-stacked global
/// domain, for any shape with every dimension >= 1. `has_lower`/`has_upper`
/// say whether a neighbor rank exists below/above (global boundary rows
/// simply drop the out-of-domain couplings, like HPCCG's generate_matrix).
/// Off-diagonals are -1, the diagonal is diag_weight(stencil).
CsrMatrix build_grid_matrix(Stencil stencil, int nx, int ny, int nz,
                            bool has_lower, bool has_upper);

/// Memoized build_grid_matrix. Every rank of a z-stacked decomposition
/// (except the two boundary ranks) owns a bit-identical local operator, and
/// benches re-run the same configurations many times — the cache turns
/// O(ranks * runs) matrix constructions into O(distinct shapes). Entries are
/// immutable and shared; a bounded FIFO evicts old shapes (live references
/// keep their matrix alive regardless). An entry is its ~11 KiB of class
/// tables whatever the shape. Thread-safe for concurrent
/// simulations: built once under a mutex, then read through immutable
/// shared_ptrs. Host-side memoization only: the simulated setup cost a
/// caller charges is unchanged.
std::shared_ptr<const CsrMatrix> grid_matrix_cached(Stencil stencil, int nx,
                                                    int ny, int nz,
                                                    bool has_lower,
                                                    bool has_upper);

/// acc[i] = Σ_k w(r0+i, k) * x[r0+i + off(r0+i, k)] in CSR entry order for
/// rows [r0, r1) — the row-gather shared by sparsemv and the Jacobi
/// smoother. It walks the stride tables: the full grid rows of each (z, y)
/// boundary class in one batched call, the x-edge cells overwritten with
/// their own class's chain (partial rows at r0/r1, rows too short to gain
/// and rows next to either end of x go row by row). Every output bit is
/// the same either way, and no read leaves x[0, vector_len).
void csr_row_gather(const CsrMatrix& a, std::span<const double> x,
                    std::span<double> acc, std::int64_t r0, std::int64_t r1);

/// y[r0, r1) = (A * x)[r0, r1) over a row range; x must be vector_len long.
net::ComputeCost sparsemv_range(const CsrMatrix& a, std::span<const double> x,
                                std::span<double> y, std::int64_t r0,
                                std::int64_t r1);

inline net::ComputeCost sparsemv(const CsrMatrix& a, std::span<const double> x,
                                 std::span<double> y) {
  return sparsemv_range(a, x, y, 0, a.rows());
}

/// out[r] = the sum of row r's entries in CSR entry order, for every row:
/// A * 1 with both halo planes 1, bit for bit what sparsemv computes from
/// an all-ones vector (w * 1.0 == w, and the order is the same): each
/// class table is summed once. Returns the cost of that sparsemv,
/// sparsemv_cost(a.rows(), a.nnz()), for a caller that models the product.
net::ComputeCost row_sums(const CsrMatrix& a, std::span<double> out);

/// Cost of multiplying `nnz` non-zeros over `rows` rows: 2 flops per nnz;
/// value+index streams plus gather/output traffic.
inline net::ComputeCost sparsemv_cost(std::int64_t rows, std::int64_t nnz) {
  return {2.0 * static_cast<double>(nnz),
          12.0 * static_cast<double>(nnz) + 16.0 * static_cast<double>(rows)};
}

}  // namespace repmpi::kernels
