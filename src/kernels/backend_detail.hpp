#pragma once

// Internal to the kernel backends (kernels/backend.hpp): the scalar
// reference loop bodies, shared between the scalar ops table (backend.cpp)
// and the AVX2 translation unit, which runs them for remainder elements so
// tails are bit-exact by construction. Every function here defines the
// accumulation order the SIMD paths must reproduce per output element —
// change one and you change the contract for all backends at once.
//
// Not a public header: kernel callers go through kernels/sparse.hpp etc.,
// which dispatch through the active BackendOps table.

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "kernels/backend.hpp"
#include "kernels/pic.hpp"
#include "kernels/sparse.hpp"

namespace repmpi::kernels::detail {

// --- Vector ops -------------------------------------------------------------

inline void waxpby_scalar(double alpha, const double* x, double beta,
                          const double* y, double* w, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) w[i] = alpha * x[i] + beta * y[i];
}

inline double ddot_scalar(const double* x, const double* y, std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

// --- SpMV structured row gather ---------------------------------------------

/// One structured row: npts (offset, weight) pairs in emit order.
inline double gather_one_row(const double* xp, std::int64_t r,
                             const StencilTables::Table& t) {
  const double* const xr = xp + r;
  double s = 0.0;
  for (int k = 0; k < t.npts; ++k) s += t.w[k] * xr[t.off[k]];
  return s;
}

/// Rows of one boundary class of a grid operator: npts fixed stride offsets
/// and ±1/diagonal weights, in CSR entry order (kernels/sparse.hpp,
/// StencilTables). Rows are processed four at a time with independent
/// accumulators: one row's npts dependent adds form a latency-bound serial
/// chain, and interleaving rows recovers the ILP without reordering any
/// row's sum.
template <int N>
void gather_table_rows(const double* xp, double* acc, std::int64_t r0,
                       std::int64_t r1, const StencilTables::Table& t,
                       int npts_rt) {
  const std::int64_t* const off = t.off;
  const double* const w = t.w;
  // N > 0: compile-time trip count (full interior tables — lets the
  // compiler unroll); N == 0: runtime count for the edge-class tables.
  const int npts = N > 0 ? N : npts_rt;
  std::int64_t r = r0;
  for (; r + 4 <= r1; r += 4) {
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    const double* const xr = xp + r;
    for (int k = 0; k < npts; ++k) {
      const double wk = w[k];
      const double* const p = xr + off[k];
      s0 += wk * p[0];
      s1 += wk * p[1];
      s2 += wk * p[2];
      s3 += wk * p[3];
    }
    double* const o = acc + (r - r0);
    o[0] = s0;
    o[1] = s1;
    o[2] = s2;
    o[3] = s3;
  }
  for (; r < r1; ++r) acc[r - r0] = gather_one_row(xp, r, t);
}

inline void gather_table_scalar(const double* xp, double* acc,
                                std::int64_t r0, std::int64_t r1,
                                const StencilTables::Table& t) {
  switch (t.npts) {
    case 27:
      gather_table_rows<27>(xp, acc, r0, r1, t, 27);
      return;
    case 7:
      gather_table_rows<7>(xp, acc, r0, r1, t, 7);
      return;
    default:
      gather_table_rows<0>(xp, acc, r0, r1, t, t.npts);
      return;
  }
}

// --- 27-point stencil interior rows -----------------------------------------

/// One fully interior cell from nine hoisted row pointers: 27 adds in
/// (dz, dy, dx) order, then one divide.
inline double stencil_cell_from_rows(const double* const* rows, int x) {
  double acc = 0.0;
  for (int j = 0; j < 9; ++j) {
    const double* const r = rows[j];
    acc += r[x - 1];
    acc += r[x];
    acc += r[x + 1];
  }
  return acc / 27.0;
}

/// Interior-row sweep over x in [x0, x1). Four cells at a time with
/// independent accumulators: each cell's 27-term addition sequence is
/// unchanged (bit-identical), but the serial add chains of neighboring
/// cells overlap in the pipeline.
inline void stencil_row_scalar(const double* const* rows, double* orow,
                               int x0, int x1) {
  int x = x0;
  for (; x + 4 <= x1; x += 4) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (int j = 0; j < 9; ++j) {
      const double* const r = rows[j];
      a0 += r[x - 1];
      a0 += r[x];
      a0 += r[x + 1];
      a1 += r[x];
      a1 += r[x + 1];
      a1 += r[x + 2];
      a2 += r[x + 1];
      a2 += r[x + 2];
      a2 += r[x + 3];
      a3 += r[x + 2];
      a3 += r[x + 3];
      a3 += r[x + 4];
    }
    orow[x] = a0 / 27.0;
    orow[x + 1] = a1 / 27.0;
    orow[x + 2] = a2 / 27.0;
    orow[x + 3] = a3 / 27.0;
  }
  for (; x < x1; ++x) orow[x] = stencil_cell_from_rows(rows, x);
}

// --- PIC helpers ------------------------------------------------------------

/// Wraps v into [0, limit). Particle displacements are bounded by one
/// period, so the common cases are handled with an exact add/subtract and
/// std::fmod (a libm call, and the former hot-path cost of the PIC kernels)
/// only runs for far-out values. Bit-identical to the fmod formulation:
/// v - limit is exact for v in [limit, 2*limit) (Sterbenz), fmod returns v
/// unchanged for |v| < limit, and the same `v + limit` rounding is applied
/// to negative remainders.
inline double wrap(double v, double limit) {
  if (v >= 0) {
    if (v < limit) return v;
    const double w = v - limit;
    if (w < limit) return w;
  } else if (v > -limit) {
    return v + limit;
  }
  v = std::fmod(v, limit);
  return v < 0 ? v + limit : v;
}

/// Periodic index reduction for coordinates already wrapped into [0, m]
/// (wrap() can return exactly `limit` after rounding, hence the first
/// branch). Equivalent to % but without the integer division.
inline int pwrap(int i, int m) {
  if (i >= m) i -= m;
  return i;
}

/// One interpolation axis: wrapped cell pair and fractional coordinate.
/// The gyro ring's axis-aligned points share the unperturbed axis of the
/// other dimension, so each axis is resolved once per particle and reused
/// by the two ring points that need it (half the index math of resolving
/// both axes per point).
struct Axis {
  int iw, i1;  ///< wrapped cell and wrapped cell + 1
  double f;    ///< fraction within the cell
};

inline Axis axis_of(double p, int m) {
  const int i0 = static_cast<int>(p);
  return {pwrap(i0, m), pwrap(i0 + 1, m), p - i0};
}

/// Bilinear deposit of weight w at resolved axes (ax, ay). The four
/// scatter terms keep the left-associated multiply order of
/// w * frac_x * frac_y, so results are bit-identical to the naive form.
inline void deposit_bilinear(Field2D& f, const Axis& ax, const Axis& ay,
                             double w) {
  const double u0 = w * (1 - ax.f);
  const double u1 = w * ax.f;
  double* const row0 = f.v.data() + static_cast<std::size_t>(ay.iw) *
                                        static_cast<std::size_t>(f.mx);
  double* const row1 = f.v.data() + static_cast<std::size_t>(ay.i1) *
                                        static_cast<std::size_t>(f.mx);
  row0[ax.iw] += u0 * (1 - ay.f);
  row0[ax.i1] += u1 * (1 - ay.f);
  row1[ax.iw] += u0 * ay.f;
  row1[ax.i1] += u1 * ay.f;
}

// The 4-point gyro ring offsets are the axis-aligned unit vectors
// (1,0), (0,1), (-1,0), (0,-1), scaled by each particle's gyro-radius.
// charge and push unroll the ring explicitly in that order so the
// unperturbed coordinate of each axis (wrapped and grid-scaled) is computed
// once and reused by the two ring points that share it.

/// One particle's charge deposit (the scalar loop body of charge).
inline void charge_one(const Particles& p, std::size_t i, double lx,
                       double ly, double sx, double sy, Field2D& partial) {
  const double xi = p.x[i], yi = p.y[i], ri = p.rho[i];
  const Axis acx = axis_of(wrap(xi, lx) * sx, partial.mx);
  const Axis acy = axis_of(wrap(yi, ly) * sy, partial.my);
  const Axis axp = axis_of(wrap(xi + ri, lx) * sx, partial.mx);
  const Axis ayp = axis_of(wrap(yi + ri, ly) * sy, partial.my);
  const Axis axm = axis_of(wrap(xi - ri, lx) * sx, partial.mx);
  const Axis aym = axis_of(wrap(yi - ri, ly) * sy, partial.my);
  deposit_bilinear(partial, axp, acy, 0.25);
  deposit_bilinear(partial, acx, ayp, 0.25);
  deposit_bilinear(partial, axm, acy, 0.25);
  deposit_bilinear(partial, acx, aym, 0.25);
}

inline void charge_scalar(const Particles& p, std::size_t i0, std::size_t i1,
                          double lx, double ly, Field2D& partial) {
  const double sx = partial.mx / lx;
  const double sy = partial.my / ly;
  for (std::size_t i = i0; i < i1; ++i) charge_one(p, i, lx, ly, sx, sy, partial);
}

/// Bilinear gather at (ax_, ay_) from two fields' hoisted row pointers; the
/// term order matches the single-point form bit for bit.
inline void gather2(const double* fa, const double* fb, std::size_t mx,
                    const Axis& ax_, const Axis& ay_, double* va,
                    double* vb) {
  const double w00 = (1 - ax_.f) * (1 - ay_.f);
  const double w10 = ax_.f * (1 - ay_.f);
  const double w01 = (1 - ax_.f) * ay_.f;
  const double w11 = ax_.f * ay_.f;
  const double* const a0 = fa + static_cast<std::size_t>(ay_.iw) * mx;
  const double* const a1 = fa + static_cast<std::size_t>(ay_.i1) * mx;
  const double* const b0 = fb + static_cast<std::size_t>(ay_.iw) * mx;
  const double* const b1 = fb + static_cast<std::size_t>(ay_.i1) * mx;
  *va = a0[ax_.iw] * w00 + a0[ax_.i1] * w10 + a1[ax_.iw] * w01 +
        a1[ax_.i1] * w11;
  *vb = b0[ax_.iw] * w00 + b0[ax_.i1] * w10 + b1[ax_.iw] * w01 +
        b1[ax_.i1] * w11;
}

/// One particle's push (the scalar loop body of push).
inline void push_one(double* x, double* y, double* vx, double* vy,
                     const double* rho, std::size_t i, double lx, double ly,
                     double sx, double sy, double dt, const Field2D& ex,
                     const Field2D& ey) {
  const double* const exv = ex.v.data();
  const double* const eyv = ey.v.data();
  const std::size_t mx = static_cast<std::size_t>(ex.mx);
  const double xi = x[i], yi = y[i], ri = rho[i];
  const Axis acx = axis_of(wrap(xi, lx) * sx, ex.mx);
  const Axis acy = axis_of(wrap(yi, ly) * sy, ex.my);
  const Axis axp = axis_of(wrap(xi + ri, lx) * sx, ex.mx);
  const Axis ayp = axis_of(wrap(yi + ri, ly) * sy, ex.my);
  const Axis axm = axis_of(wrap(xi - ri, lx) * sx, ex.mx);
  const Axis aym = axis_of(wrap(yi - ri, ly) * sy, ex.my);
  double ax = 0, ay = 0;
  double ga, gb;
  gather2(exv, eyv, mx, axp, acy, &ga, &gb);
  ax += 0.25 * ga;
  ay += 0.25 * gb;
  gather2(exv, eyv, mx, acx, ayp, &ga, &gb);
  ax += 0.25 * ga;
  ay += 0.25 * gb;
  gather2(exv, eyv, mx, axm, acy, &ga, &gb);
  ax += 0.25 * ga;
  ay += 0.25 * gb;
  gather2(exv, eyv, mx, acx, aym, &ga, &gb);
  ax += 0.25 * ga;
  ay += 0.25 * gb;
  // ExB-ish drift plus electrostatic kick (cyclotron rotation folded in).
  const double c = 0.99995, s = 0.01;  // small-angle rotation
  const double nvx = c * vx[i] - s * vy[i] - dt * ax;
  const double nvy = s * vx[i] + c * vy[i] - dt * ay;
  vx[i] = nvx;
  vy[i] = nvy;
  x[i] = wrap(x[i] + dt * nvx, lx);
  y[i] = wrap(y[i] + dt * nvy, ly);
}

inline void push_scalar(double* x, double* y, double* vx, double* vy,
                        const double* rho, std::size_t n, double lx,
                        double ly, double dt, const Field2D& ex,
                        const Field2D& ey) {
  const double sx = ex.mx / lx;
  const double sy = ex.my / ly;
  for (std::size_t i = 0; i < n; ++i)
    push_one(x, y, vx, vy, rho, i, lx, ly, sx, sy, dt, ex, ey);
}

// --- SIMD ops table (compiled per toolchain support; see CMakeLists) --------

#ifdef REPMPI_HAVE_AVX2
const BackendOps& avx2_ops();
#endif

}  // namespace repmpi::kernels::detail
