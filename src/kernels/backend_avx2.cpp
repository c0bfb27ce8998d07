// AVX2 kernel backend: 4-wide double SIMD over independent output elements.
//
// Bit-identity discipline (see kernels/backend.hpp): lanes are independent
// outputs (rows, cells, particles), so each lane executes exactly the
// scalar reference's operation sequence; reductions that feed one output
// (ddot) keep the scalar's serial add order and only vectorize the
// products. Multiplies and adds stay separate instructions — the scalar
// reference has no FMA, and this TU is compiled with -ffp-contract=off so
// the compiler cannot fuse them behind our back. Remainder elements run the
// shared scalar loop bodies (backend_detail.hpp).

#include <immintrin.h>

#include "kernels/backend_detail.hpp"

namespace repmpi::kernels::detail {

namespace {

// --- Vector ops -------------------------------------------------------------

void waxpby_avx2(double alpha, const double* x, double beta, const double* y,
                 double* w, std::size_t n) {
  const __m256d av = _mm256_set1_pd(alpha);
  const __m256d bv = _mm256_set1_pd(beta);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d ax = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    const __m256d by = _mm256_mul_pd(bv, _mm256_loadu_pd(y + i));
    _mm256_storeu_pd(w + i, _mm256_add_pd(ax, by));
  }
  for (; i < n; ++i) w[i] = alpha * x[i] + beta * y[i];
}

// Lane-ordered reduction: the products are computed 4 at a time, but the
// accumulator consumes them in index order through one serial add chain —
// the exact scalar sequence, so the sum is bit-identical (and the kernel
// stays chain-latency-bound like the scalar loop; ddot is dispatched for
// uniformity, not speed).
double ddot_avx2(const double* x, const double* y, std::size_t n) {
  double acc = 0.0;
  std::size_t i = 0;
  alignas(32) double lanes[4];
  for (; i + 4 <= n; i += 4) {
    _mm256_store_pd(lanes, _mm256_mul_pd(_mm256_loadu_pd(x + i),
                                         _mm256_loadu_pd(y + i)));
    acc += lanes[0];
    acc += lanes[1];
    acc += lanes[2];
    acc += lanes[3];
  }
  for (; i < n; ++i) acc += x[i] * y[i];
  return acc;
}

// --- SpMV structured row gather ---------------------------------------------

// Four consecutive rows per register: lane l accumulates row r0+l's
// sum_k w[k] * x[r + l + off[k]] with one broadcast-multiply-add per table
// entry — per lane the same (w[k] * x) then (+) chain as the scalar walk.
// The main loop carries four registers (16 rows) so the serially-dependent
// adds of one register pipeline behind the other three chains — a single
// accumulator is add-latency-bound at exactly the scalar blocked-4 loop's
// throughput, which is why the 4x unroll, not the vector width, is where
// the speedup lives. Per output element the chain is untouched.
template <int N>
void gather_rows_avx2(const double* xp, double* acc, std::int64_t r0,
                      std::int64_t r1, const StencilTables::Table& t,
                      int npts_rt) {
  const std::int64_t* const off = t.off;
  const double* const w = t.w;
  const int npts = N > 0 ? N : npts_rt;
  std::int64_t r = r0;
  for (; r + 16 <= r1; r += 16) {
    const double* const xr = xp + r;
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    __m256d s2 = _mm256_setzero_pd();
    __m256d s3 = _mm256_setzero_pd();
    for (int k = 0; k < npts; ++k) {
      const double* const xo = xr + off[k];
      if (w[k] == -1.0) {
        // Grid matrices carry -1.0 off-diagonals (26 of 27 entries):
        // s + (-1.0 * x) and s - x are the same IEEE operation for every
        // non-NaN x, so the subtract skips the multiply bit-exactly and
        // halves the FP-port pressure. The branch repeats identically per
        // block, so it predicts perfectly.
        s0 = _mm256_sub_pd(s0, _mm256_loadu_pd(xo));
        s1 = _mm256_sub_pd(s1, _mm256_loadu_pd(xo + 4));
        s2 = _mm256_sub_pd(s2, _mm256_loadu_pd(xo + 8));
        s3 = _mm256_sub_pd(s3, _mm256_loadu_pd(xo + 12));
      } else {
        const __m256d wk = _mm256_set1_pd(w[k]);
        s0 = _mm256_add_pd(s0, _mm256_mul_pd(wk, _mm256_loadu_pd(xo)));
        s1 = _mm256_add_pd(s1, _mm256_mul_pd(wk, _mm256_loadu_pd(xo + 4)));
        s2 = _mm256_add_pd(s2, _mm256_mul_pd(wk, _mm256_loadu_pd(xo + 8)));
        s3 = _mm256_add_pd(s3, _mm256_mul_pd(wk, _mm256_loadu_pd(xo + 12)));
      }
    }
    _mm256_storeu_pd(acc + (r - r0), s0);
    _mm256_storeu_pd(acc + (r - r0) + 4, s1);
    _mm256_storeu_pd(acc + (r - r0) + 8, s2);
    _mm256_storeu_pd(acc + (r - r0) + 12, s3);
  }
  for (; r + 4 <= r1; r += 4) {
    const double* const xr = xp + r;
    __m256d s = _mm256_setzero_pd();
    for (int k = 0; k < npts; ++k) {
      const __m256d xv = _mm256_loadu_pd(xr + off[k]);
      if (w[k] == -1.0) {
        s = _mm256_sub_pd(s, xv);
      } else {
        s = _mm256_add_pd(s, _mm256_mul_pd(_mm256_set1_pd(w[k]), xv));
      }
    }
    _mm256_storeu_pd(acc + (r - r0), s);
  }
  for (; r < r1; ++r) acc[r - r0] = gather_one_row(xp, r, t);
}

void gather_table_avx2(const double* xp, double* acc, std::int64_t r0,
                       std::int64_t r1, const StencilTables::Table& t) {
  switch (t.npts) {
    case 27:
      gather_rows_avx2<27>(xp, acc, r0, r1, t, 27);
      return;
    case 7:
      gather_rows_avx2<7>(xp, acc, r0, r1, t, 7);
      return;
    default:
      gather_rows_avx2<0>(xp, acc, r0, r1, t, t.npts);
      return;
  }
}

// --- 27-point stencil interior rows -----------------------------------------

// Four consecutive cells per register; per lane the 27 adds arrive in the
// scalar (dz, dy, dx) order (three unaligned loads per row pointer), then
// one divide by 27. Four accumulator chains (16 cells) in the main loop for
// the same latency-hiding reason as gather_rows_avx2.
void stencil_row_avx2(const double* const* rows, double* orow, int x0,
                      int x1) {
  const __m256d inv = _mm256_set1_pd(27.0);
  int x = x0;
  for (; x + 16 <= x1; x += 16) {
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (int j = 0; j < 9; ++j) {
      const double* const r = rows[j];
      for (int d = -1; d <= 1; ++d) {
        a0 = _mm256_add_pd(a0, _mm256_loadu_pd(r + x + d));
        a1 = _mm256_add_pd(a1, _mm256_loadu_pd(r + x + 4 + d));
        a2 = _mm256_add_pd(a2, _mm256_loadu_pd(r + x + 8 + d));
        a3 = _mm256_add_pd(a3, _mm256_loadu_pd(r + x + 12 + d));
      }
    }
    _mm256_storeu_pd(orow + x, _mm256_div_pd(a0, inv));
    _mm256_storeu_pd(orow + x + 4, _mm256_div_pd(a1, inv));
    _mm256_storeu_pd(orow + x + 8, _mm256_div_pd(a2, inv));
    _mm256_storeu_pd(orow + x + 12, _mm256_div_pd(a3, inv));
  }
  for (; x + 4 <= x1; x += 4) {
    __m256d a = _mm256_setzero_pd();
    for (int j = 0; j < 9; ++j) {
      const double* const r = rows[j];
      a = _mm256_add_pd(a, _mm256_loadu_pd(r + x - 1));
      a = _mm256_add_pd(a, _mm256_loadu_pd(r + x));
      a = _mm256_add_pd(a, _mm256_loadu_pd(r + x + 1));
    }
    _mm256_storeu_pd(orow + x, _mm256_div_pd(a, inv));
  }
  for (; x < x1; ++x) orow[x] = stencil_cell_from_rows(rows, x);
}

// --- PIC --------------------------------------------------------------------

// wrap() over 4 lanes. The three fast branches of the scalar wrap are exact
// IEEE add/subtracts, so they vectorize as masked blends; any lane that
// would hit the fmod fallback (far-out coordinate) is redone through the
// scalar helper, preserving libm's result bit for bit.
inline __m256d wrap4(__m256d v, double limit) {
  const __m256d lim = _mm256_set1_pd(limit);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d vminus = _mm256_sub_pd(v, lim);
  const __m256d vplus = _mm256_add_pd(v, lim);
  const __m256d ge0 = _mm256_cmp_pd(v, zero, _CMP_GE_OQ);
  const __m256d lt_lim = _mm256_cmp_pd(v, lim, _CMP_LT_OQ);
  // v in [0, limit): keep. v in [limit, 2*limit): v - limit.
  // v in (-limit, 0): v + limit. Anything else: scalar fmod fallback.
  const __m256d keep = _mm256_and_pd(ge0, lt_lim);
  const __m256d sub_ok = _mm256_cmp_pd(vminus, lim, _CMP_LT_OQ);
  const __m256d use_sub =
      _mm256_andnot_pd(lt_lim, _mm256_and_pd(ge0, sub_ok));
  const __m256d gt_neg =
      _mm256_cmp_pd(v, _mm256_sub_pd(zero, lim), _CMP_GT_OQ);
  const __m256d use_add = _mm256_andnot_pd(ge0, gt_neg);
  __m256d r = _mm256_blendv_pd(v, vminus, use_sub);
  r = _mm256_blendv_pd(r, vplus, use_add);
  const __m256d handled =
      _mm256_or_pd(keep, _mm256_or_pd(use_sub, use_add));
  const int mask = _mm256_movemask_pd(handled);
  if (mask != 0xf) {
    alignas(32) double vv[4], rr[4];
    _mm256_store_pd(vv, v);
    _mm256_store_pd(rr, r);
    for (int l = 0; l < 4; ++l)
      if (!(mask & (1 << l))) rr[l] = wrap(vv[l], limit);
    r = _mm256_load_pd(rr);
  }
  return r;
}

struct Axis4 {
  __m128i iw, i1;  ///< wrapped cell and wrapped cell + 1 (epi32)
  __m256d f;       ///< fraction within the cell
};

// axis_of over 4 lanes: truncation (cvttpd) matches the scalar (int) cast
// for the wrapped, non-negative inputs; pwrap's single conditional subtract
// becomes a compare-and-masked-subtract.
inline Axis4 axis4_of(__m256d p, int m) {
  const __m128i i0 = _mm256_cvttpd_epi32(p);
  const __m256d f = _mm256_sub_pd(p, _mm256_cvtepi32_pd(i0));
  const __m128i mv = _mm_set1_epi32(m);
  const __m128i mm1 = _mm_set1_epi32(m - 1);
  const __m128i over0 = _mm_cmpgt_epi32(i0, mm1);  // i0 >= m
  const __m128i iw = _mm_sub_epi32(i0, _mm_and_si128(over0, mv));
  const __m128i ip = _mm_add_epi32(i0, _mm_set1_epi32(1));
  const __m128i over1 = _mm_cmpgt_epi32(ip, mm1);
  const __m128i i1 = _mm_sub_epi32(ip, _mm_and_si128(over1, mv));
  return {iw, i1, f};
}

// Bilinear gather of two fields at 4 particles' (ax, ay): weight products
// and the ((g00*w00 + g10*w10) + g01*w01) + g11*w11 sum order match
// All-lanes i32 gather via the masked form: the plain _mm256_i32gather_pd
// starts from an undefined source register, which GCC 12 flags as
// maybe-uninitialized under -Werror; an explicit zero source with a full
// mask gathers identically.
inline __m256d gather_pd(const double* base, __m128i idx) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), base, idx,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

// detail::gather2 per lane; the four field reads become i32 gathers.
inline void gather2x4(const double* fa, const double* fb, int mx,
                      const Axis4& ax, const Axis4& ay, __m256d* va,
                      __m256d* vb) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d gx = _mm256_sub_pd(one, ax.f);
  const __m256d gy = _mm256_sub_pd(one, ay.f);
  const __m256d w00 = _mm256_mul_pd(gx, gy);
  const __m256d w10 = _mm256_mul_pd(ax.f, gy);
  const __m256d w01 = _mm256_mul_pd(gx, ay.f);
  const __m256d w11 = _mm256_mul_pd(ax.f, ay.f);
  const __m128i mxv = _mm_set1_epi32(mx);
  const __m128i row0 = _mm_mullo_epi32(ay.iw, mxv);
  const __m128i row1 = _mm_mullo_epi32(ay.i1, mxv);
  const __m128i i00 = _mm_add_epi32(row0, ax.iw);
  const __m128i i10 = _mm_add_epi32(row0, ax.i1);
  const __m128i i01 = _mm_add_epi32(row1, ax.iw);
  const __m128i i11 = _mm_add_epi32(row1, ax.i1);
  __m256d a = _mm256_add_pd(_mm256_mul_pd(gather_pd(fa, i00), w00),
                            _mm256_mul_pd(gather_pd(fa, i10), w10));
  a = _mm256_add_pd(a, _mm256_mul_pd(gather_pd(fa, i01), w01));
  a = _mm256_add_pd(a, _mm256_mul_pd(gather_pd(fa, i11), w11));
  *va = a;
  __m256d b = _mm256_add_pd(_mm256_mul_pd(gather_pd(fb, i00), w00),
                            _mm256_mul_pd(gather_pd(fb, i10), w10));
  b = _mm256_add_pd(b, _mm256_mul_pd(gather_pd(fb, i01), w01));
  b = _mm256_add_pd(b, _mm256_mul_pd(gather_pd(fb, i11), w11));
  *vb = b;
}

/// The six resolved interpolation axes of 4 particles (center, +rho, -rho
/// per dimension) — the shared front half of charge and push.
struct Ring4 {
  Axis4 acx, acy, axp, ayp, axm, aym;
};

inline Ring4 ring4_of(__m256d xi, __m256d yi, __m256d ri, double lx,
                      double ly, double sx, double sy, int mx, int my) {
  const __m256d sxv = _mm256_set1_pd(sx);
  const __m256d syv = _mm256_set1_pd(sy);
  Ring4 r;
  r.acx = axis4_of(_mm256_mul_pd(wrap4(xi, lx), sxv), mx);
  r.acy = axis4_of(_mm256_mul_pd(wrap4(yi, ly), syv), my);
  r.axp = axis4_of(_mm256_mul_pd(wrap4(_mm256_add_pd(xi, ri), lx), sxv), mx);
  r.ayp = axis4_of(_mm256_mul_pd(wrap4(_mm256_add_pd(yi, ri), ly), syv), my);
  r.axm = axis4_of(_mm256_mul_pd(wrap4(_mm256_sub_pd(xi, ri), lx), sxv), mx);
  r.aym = axis4_of(_mm256_mul_pd(wrap4(_mm256_sub_pd(yi, ri), ly), syv), my);
  return r;
}

/// One ring point's bilinear deposit terms for 4 particles, spilled for the
/// ordered scalar scatter: values in deposit_bilinear's (00, 10, 01, 11)
/// emit order plus the flattened grid indices.
struct Deposit4 {
  alignas(32) double d00[4], d10[4], d01[4], d11[4];
  alignas(16) std::int32_t i00[4], i10[4], i01[4], i11[4];
};

inline void deposit4_of(const Axis4& ax, const Axis4& ay, double w, int mx,
                        Deposit4* out) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d wv = _mm256_set1_pd(w);
  const __m256d u0 = _mm256_mul_pd(wv, _mm256_sub_pd(one, ax.f));
  const __m256d u1 = _mm256_mul_pd(wv, ax.f);
  const __m256d gy = _mm256_sub_pd(one, ay.f);
  _mm256_store_pd(out->d00, _mm256_mul_pd(u0, gy));
  _mm256_store_pd(out->d10, _mm256_mul_pd(u1, gy));
  _mm256_store_pd(out->d01, _mm256_mul_pd(u0, ay.f));
  _mm256_store_pd(out->d11, _mm256_mul_pd(u1, ay.f));
  const __m128i mxv = _mm_set1_epi32(mx);
  const __m128i row0 = _mm_mullo_epi32(ay.iw, mxv);
  const __m128i row1 = _mm_mullo_epi32(ay.i1, mxv);
  _mm_store_si128(reinterpret_cast<__m128i*>(out->i00),
                  _mm_add_epi32(row0, ax.iw));
  _mm_store_si128(reinterpret_cast<__m128i*>(out->i10),
                  _mm_add_epi32(row0, ax.i1));
  _mm_store_si128(reinterpret_cast<__m128i*>(out->i01),
                  _mm_add_epi32(row1, ax.iw));
  _mm_store_si128(reinterpret_cast<__m128i*>(out->i11),
                  _mm_add_epi32(row1, ax.i1));
}

// charge: axes and bilinear weights are computed 4 particles at a time, but
// the grid scatters stay serial in particle order — ring points of one
// particle, then the next — because gyro rings overlap on the grid and the
// scalar reference's add order onto each cell must be preserved exactly.
void charge_avx2(const Particles& p, std::size_t i0, std::size_t i1,
                 double lx, double ly, Field2D& partial) {
  const double sx = partial.mx / lx;
  const double sy = partial.my / ly;
  double* const grid = partial.v.data();
  std::size_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    const __m256d xi = _mm256_loadu_pd(p.x.data() + i);
    const __m256d yi = _mm256_loadu_pd(p.y.data() + i);
    const __m256d ri = _mm256_loadu_pd(p.rho.data() + i);
    const Ring4 r = ring4_of(xi, yi, ri, lx, ly, sx, sy, partial.mx,
                             partial.my);
    Deposit4 d[4];
    deposit4_of(r.axp, r.acy, 0.25, partial.mx, &d[0]);
    deposit4_of(r.acx, r.ayp, 0.25, partial.mx, &d[1]);
    deposit4_of(r.axm, r.acy, 0.25, partial.mx, &d[2]);
    deposit4_of(r.acx, r.aym, 0.25, partial.mx, &d[3]);
    for (int l = 0; l < 4; ++l) {
      for (int pt = 0; pt < 4; ++pt) {
        const Deposit4& dp = d[pt];
        grid[dp.i00[l]] += dp.d00[l];
        grid[dp.i10[l]] += dp.d10[l];
        grid[dp.i01[l]] += dp.d01[l];
        grid[dp.i11[l]] += dp.d11[l];
      }
    }
  }
  for (; i < i1; ++i) charge_one(p, i, lx, ly, sx, sy, partial);
}

// push: fully data-parallel across particles (outputs are disjoint SoA
// elements), so everything vectorizes — axes, the four ring-point field
// gathers, the rotation kick and the periodic wrap of the drift.
void push_avx2(double* x, double* y, double* vx, double* vy,
               const double* rho, std::size_t n, double lx, double ly,
               double dt, const Field2D& ex, const Field2D& ey) {
  const double sx = ex.mx / lx;
  const double sy = ex.my / ly;
  const double* const exv = ex.v.data();
  const double* const eyv = ey.v.data();
  const __m256d quarter = _mm256_set1_pd(0.25);
  const __m256d cv = _mm256_set1_pd(0.99995);
  const __m256d sv = _mm256_set1_pd(0.01);
  const __m256d dtv = _mm256_set1_pd(dt);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xi = _mm256_loadu_pd(x + i);
    const __m256d yi = _mm256_loadu_pd(y + i);
    const __m256d ri = _mm256_loadu_pd(rho + i);
    const Ring4 r = ring4_of(xi, yi, ri, lx, ly, sx, sy, ex.mx, ex.my);
    __m256d ax = _mm256_setzero_pd();
    __m256d ay = _mm256_setzero_pd();
    __m256d ga, gb;
    gather2x4(exv, eyv, ex.mx, r.axp, r.acy, &ga, &gb);
    ax = _mm256_add_pd(ax, _mm256_mul_pd(quarter, ga));
    ay = _mm256_add_pd(ay, _mm256_mul_pd(quarter, gb));
    gather2x4(exv, eyv, ex.mx, r.acx, r.ayp, &ga, &gb);
    ax = _mm256_add_pd(ax, _mm256_mul_pd(quarter, ga));
    ay = _mm256_add_pd(ay, _mm256_mul_pd(quarter, gb));
    gather2x4(exv, eyv, ex.mx, r.axm, r.acy, &ga, &gb);
    ax = _mm256_add_pd(ax, _mm256_mul_pd(quarter, ga));
    ay = _mm256_add_pd(ay, _mm256_mul_pd(quarter, gb));
    gather2x4(exv, eyv, ex.mx, r.acx, r.aym, &ga, &gb);
    ax = _mm256_add_pd(ax, _mm256_mul_pd(quarter, ga));
    ay = _mm256_add_pd(ay, _mm256_mul_pd(quarter, gb));
    const __m256d vxi = _mm256_loadu_pd(vx + i);
    const __m256d vyi = _mm256_loadu_pd(vy + i);
    // (c*vx - s*vy) - dt*ax and (s*vx + c*vy) - dt*ay, the scalar order.
    const __m256d nvx = _mm256_sub_pd(
        _mm256_sub_pd(_mm256_mul_pd(cv, vxi), _mm256_mul_pd(sv, vyi)),
        _mm256_mul_pd(dtv, ax));
    const __m256d nvy = _mm256_sub_pd(
        _mm256_add_pd(_mm256_mul_pd(sv, vxi), _mm256_mul_pd(cv, vyi)),
        _mm256_mul_pd(dtv, ay));
    _mm256_storeu_pd(vx + i, nvx);
    _mm256_storeu_pd(vy + i, nvy);
    _mm256_storeu_pd(x + i,
                     wrap4(_mm256_add_pd(xi, _mm256_mul_pd(dtv, nvx)), lx));
    _mm256_storeu_pd(y + i,
                     wrap4(_mm256_add_pd(yi, _mm256_mul_pd(dtv, nvy)), ly));
  }
  for (; i < n; ++i)
    push_one(x, y, vx, vy, rho, i, lx, ly, sx, sy, dt, ex, ey);
}

const BackendOps kAvx2Ops{
    Backend::kAvx2,   waxpby_avx2, ddot_avx2, gather_table_avx2,
    stencil_row_avx2, charge_avx2, push_avx2,
};

}  // namespace

const BackendOps& avx2_ops() { return kAvx2Ops; }

}  // namespace repmpi::kernels::detail
