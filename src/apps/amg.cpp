#include "apps/amg.hpp"

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "kernels/vector_ops.hpp"

namespace repmpi::apps {

namespace {

using kernels::CsrMatrix;

/// One multigrid level: operator and work vectors.
struct Level {
  std::shared_ptr<const CsrMatrix> a;
  std::vector<double> xh;   ///< iterate, with halo planes (vector_len)
  std::vector<double> xh2;  ///< sweep double-buffer, with halo planes
  /// Interior-size work vectors: b is the restricted right-hand side (not
  /// on the finest level, whose V-cycle solves against the caller's
  /// vector); r is the residual restricted from (not on the coarsest).
  std::vector<double> b, r;
};

struct TaskRanges {
  std::size_t n;
  int parts;
  std::size_t begin(int i) const {
    return n * static_cast<std::size_t>(i) / static_cast<std::size_t>(parts);
  }
  std::size_t end(int i) const { return begin(i + 1); }
};

class AmgSolver {
 public:
  AmgSolver(AppContext& ctx, const AmgParams& p) : ctx_(ctx), p_(p) {
    mpi::ScopedPhase sp(ctx_.proc, "setup");
    REPMPI_CHECK_MSG(p.nx % (1 << (p.levels - 1)) == 0 &&
                         p.ny % (1 << (p.levels - 1)) == 0 &&
                         p.nz % (1 << (p.levels - 1)) == 0,
                     "grid dims must be divisible by 2^(levels-1)");
    const bool lower = ctx_.rank() > 0;
    const bool upper = ctx_.rank() < ctx_.size() - 1;
    int nx = p.nx, ny = p.ny, nz = p.nz;
    for (int l = 0; l < p.levels; ++l) {
      Level lev;
      lev.a = kernels::grid_matrix_cached(p.stencil, nx, ny, nz, lower, upper);
      ctx_.proc.compute(kernels::sparsemv_cost(lev.a->rows(), lev.a->nnz()));
      lev.xh.assign(lev.a->vector_len(), 0.0);
      lev.xh2.assign(lev.a->vector_len(), 0.0);
      if (l > 0) lev.b.assign(lev.a->interior(), 0.0);
      if (l < p.levels - 1) lev.r.assign(lev.a->interior(), 0.0);
      levels_.push_back(std::move(lev));
      nx /= 2;
      ny /= 2;
      nz /= 2;
    }
  }

  Level& fine() { return levels_.front(); }
  std::size_t n() { return fine().a->interior(); }

  /// Exchanges the boundary planes of a halo-carrying vector on level l.
  void halo_exchange(int l, std::span<double> v) {
    const CsrMatrix& a = *levels_[static_cast<std::size_t>(l)].a;
    const std::size_t plane = a.plane();
    z_halo_exchange(ctx_, v.first(plane),
                    v.subspan(a.interior() - plane, plane),
                    v.subspan(a.halo_bottom(), plane),
                    v.subspan(a.halo_top(), plane), tag_counter_);
    tag_counter_ += 2;
  }

  /// y = A*x on level l (x carries halos, already exchanged).
  void matvec(int l, std::span<const double> x, std::span<double> y,
              bool intra, const std::string& phase) {
    sparsemv_section(ctx_, phase, *levels_[static_cast<std::size_t>(l)].a, x,
                     y, intra, p_.tasks_per_section);
  }

  /// One weighted-Jacobi sweep on level l: xh <- xh + w D^-1 (b - A xh).
  /// Fine-level sweeps may run as intra sections; coarse levels never do.
  void jacobi_sweep(int l, std::span<const double> b, bool intra) {
    Level& lev = levels_[static_cast<std::size_t>(l)];
    halo_exchange(l, lev.xh);
    // All sweeps belong to the "smoother" region: the paper's sections/
    // others split classifies *code regions*, identically in all three run
    // modes.
    mpi::ScopedPhase sp(ctx_.proc, "smoother");
    const double w = p_.jacobi_weight;
    // Every row's diagonal entry is the stencil's centre weight.
    const double inv_diag = 1.0 / kernels::diag_weight(p_.stencil);
    const CsrMatrix& a = *lev.a;
    const auto row_update = [&a, &lev, b, w, inv_diag](
                                std::int64_t r0, std::int64_t r1,
                                std::span<double> out) {
      // Row accumulation through the shared (table-walking) gather, then
      // the elementwise damped-Jacobi update — same per-row operation order
      // as the fused loop, so results are bit-identical.
      kernels::csr_row_gather(a, lev.xh, out, r0, r1);
      for (std::int64_t row = r0; row < r1; ++row) {
        const double acc = out[static_cast<std::size_t>(row - r0)];
        out[static_cast<std::size_t>(row - r0)] =
            lev.xh[static_cast<std::size_t>(row)] +
            w * (b[static_cast<std::size_t>(row)] - acc) * inv_diag;
      }
      return kernels::sparsemv_cost(r1 - r0, a.nnz(r0, r1)) +
             net::ComputeCost{4.0 * static_cast<double>(r1 - r0),
                              24.0 * static_cast<double>(r1 - r0)};
    };

    std::span<double> xnew(lev.xh2.data(), a.interior());
    if (intra) {
      intra::Section section(ctx_.intra);
      const int id = ctx_.intra.register_task(
          [&row_update, &xnew](intra::TaskArgs& ta) -> net::ComputeCost {
            auto out = ta.get<double>(0);
            const auto r0 =
                static_cast<std::int64_t>(out.data() - xnew.data());
            return row_update(r0, r0 + static_cast<std::int64_t>(out.size()),
                              out);
          },
          {{intra::ArgTag::kOut, sizeof(double)}});
      const TaskRanges ranges{a.interior(), p_.tasks_per_section};
      for (int t = 0; t < p_.tasks_per_section; ++t) {
        ctx_.intra.launch(
            id, {intra::Binding::of(xnew.subspan(
                    ranges.begin(t), ranges.end(t) - ranges.begin(t)))});
      }
    } else {
      ctx_.proc.compute(ctx_.share.shared(
          "smoother.sweep", {std::as_writable_bytes(xnew)},
          [&] { return row_update(0, a.rows(), xnew); }));
    }
    std::swap(lev.xh, lev.xh2);
  }

  /// r = b - A*xh on level l (fine level may be a section).
  void residual(int l, std::span<const double> b, std::span<double> r,
                bool intra) {
    Level& lev = levels_[static_cast<std::size_t>(l)];
    halo_exchange(l, lev.xh);
    matvec(l, lev.xh, r, intra, "smoother");
    mpi::ScopedPhase sp(ctx_.proc, "vector");
    ctx_.proc.compute(ctx_.share.shared(
        "vector.residual", {std::as_writable_bytes(r)},
        [&]() -> net::ComputeCost {
          for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
          return {static_cast<double>(r.size()),
                  24.0 * static_cast<double>(r.size())};
        }));
  }

  /// Full-weighting restriction of fine-level vector to the next level.
  void restrict_to(int l, std::span<const double> fine_v,
                   std::span<double> coarse_v) {
    mpi::ScopedPhase sp(ctx_.proc, "transfer");
    const CsrMatrix& fa = *levels_[static_cast<std::size_t>(l)].a;
    const CsrMatrix& ca = *levels_[static_cast<std::size_t>(l) + 1].a;
    // AMG restriction applies the transpose interpolation operator, whose
    // cost is comparable to a matvec (unlike cheap geometric averaging);
    // charged per fine point.
    ctx_.proc.compute(ctx_.share.shared(
        "transfer.restrict", {std::as_writable_bytes(coarse_v)},
        [&]() -> net::ComputeCost {
          for (int z = 0; z < ca.nz; ++z) {
            for (int y = 0; y < ca.ny; ++y) {
              for (int x = 0; x < ca.nx; ++x) {
                double acc = 0;
                for (int dz = 0; dz < 2; ++dz)
                  for (int dy = 0; dy < 2; ++dy)
                    for (int dx = 0; dx < 2; ++dx) {
                      const std::size_t fi =
                          (static_cast<std::size_t>(2 * z + dz) *
                               static_cast<std::size_t>(fa.ny) +
                           static_cast<std::size_t>(2 * y + dy)) *
                              static_cast<std::size_t>(fa.nx) +
                          static_cast<std::size_t>(2 * x + dx);
                      acc += fine_v[fi];
                    }
                const std::size_t ci =
                    (static_cast<std::size_t>(z) *
                         static_cast<std::size_t>(ca.ny) +
                     static_cast<std::size_t>(y)) *
                        static_cast<std::size_t>(ca.nx) +
                    static_cast<std::size_t>(x);
                coarse_v[ci] = acc * 0.5;  // 1/8 sum * 4 (operator scaling)
              }
            }
          }
          return {20.0 * static_cast<double>(fine_v.size()),
                  160.0 * static_cast<double>(fine_v.size())};
        }));
  }

  /// Piecewise-constant prolongation: adds the coarse correction into the
  /// fine-level iterate.
  void prolong_add(int l, std::span<const double> coarse_v) {
    mpi::ScopedPhase sp(ctx_.proc, "transfer");
    Level& flev = levels_[static_cast<std::size_t>(l)];
    const CsrMatrix& fa = *flev.a;
    const CsrMatrix& ca = *levels_[static_cast<std::size_t>(l) + 1].a;
    // AMG prolongation is likewise an interpolation-operator matvec. The
    // update is in place over the fine interior (an inout region: sharing
    // restores the post-update bytes).
    ctx_.proc.compute(ctx_.share.shared(
        "transfer.prolong",
        {std::as_writable_bytes(
            std::span<double>(flev.xh.data(), fa.interior()))},
        [&]() -> net::ComputeCost {
          for (int z = 0; z < fa.nz; ++z) {
            for (int y = 0; y < fa.ny; ++y) {
              for (int x = 0; x < fa.nx; ++x) {
                const std::size_t ci =
                    (static_cast<std::size_t>(z / 2) *
                         static_cast<std::size_t>(ca.ny) +
                     static_cast<std::size_t>(y / 2)) *
                        static_cast<std::size_t>(ca.nx) +
                    static_cast<std::size_t>(x / 2);
                const std::size_t fi =
                    (static_cast<std::size_t>(z) *
                         static_cast<std::size_t>(fa.ny) +
                     static_cast<std::size_t>(y)) *
                        static_cast<std::size_t>(fa.nx) +
                    static_cast<std::size_t>(x);
                flev.xh[fi] += coarse_v[ci];
              }
            }
          }
          return {20.0 * static_cast<double>(fa.interior()),
                  160.0 * static_cast<double>(fa.interior())};
        }));
  }

  /// One V-cycle solving levels_[l].a * x = b into levels_[l].xh
  /// (xh zeroed on entry for l > 0).
  void vcycle(int l, std::span<const double> b) {
    Level& lev = levels_[static_cast<std::size_t>(l)];
    if (l == p_.levels - 1) {
      for (int s = 0; s < p_.coarse_smooth; ++s)
        jacobi_sweep(l, b, p_.intra_coarse_smoother);
      return;
    }
    const bool intra_here =
        l == 0 ? p_.intra_fine_smoother : p_.intra_coarse_smoother;
    for (int s = 0; s < p_.pre_smooth; ++s) jacobi_sweep(l, b, intra_here);
    residual(l, b, lev.r, intra_here);
    Level& next = levels_[static_cast<std::size_t>(l) + 1];
    restrict_to(l, lev.r, next.b);
    std::fill(next.xh.begin(), next.xh.end(), 0.0);
    vcycle(l + 1, next.b);
    prolong_add(l, std::span<const double>(next.xh.data(),
                                           next.a->interior()));
    for (int s = 0; s < p_.post_smooth; ++s) jacobi_sweep(l, b, intra_here);
  }

  /// Applies the V-cycle preconditioner: z = M^{-1} v (fine level).
  void precondition(std::span<const double> v, std::span<double> z) {
    Level& lev = fine();
    std::fill(lev.xh.begin(), lev.xh.end(), 0.0);
    vcycle(0, v);
    std::copy(lev.xh.begin(), lev.xh.begin() + static_cast<std::ptrdiff_t>(n()),
              z.begin());
  }

  double dot(std::span<const double> a, std::span<const double> b) {
    const double local =
        ddot_section(ctx_, "ddot", a, b, p_.intra_ddot, p_.tasks_per_section);
    mpi::ScopedPhase sp(ctx_.proc, "comm");
    return ctx_.comm.allreduce_value(local, mpi::ReduceOp::kSum);
  }

  /// Unmodified vector update (waxpby-style): w = alpha*x + beta*y.
  void vec_update(double alpha, std::span<const double> x, double beta,
                  std::span<const double> y, std::span<double> w) {
    mpi::ScopedPhase sp(ctx_.proc, "vector");
    ctx_.proc.compute(ctx_.share.shared(
        "vector.update", {std::as_writable_bytes(w)},
        [&] { return kernels::waxpby(alpha, x, beta, y, w); }));
  }

  AppContext& ctx_;
  const AmgParams& p_;
  std::vector<Level> levels_;
  int tag_counter_ = 40000;
};

/// `r` comes in as the right-hand side: with x = 0 it is the initial
/// residual, and PCG never reads the right-hand side again.
AmgResult solve_pcg(AmgSolver& s, const AmgParams& p, std::vector<double> r) {
  const std::size_t n = s.n();
  std::vector<double> x(n, 0.0), z(n), pv(n), ap(n);
  std::vector<double> p_halo(s.fine().a->vector_len(), 0.0);

  AmgResult result;
  result.rnorm0 = std::sqrt(s.dot(r, r));

  s.precondition(r, z);
  std::copy(z.begin(), z.end(), pv.begin());
  double rz = s.dot(r, z);
  for (int it = 0; it < p.iterations; ++it) {
    std::copy(pv.begin(), pv.end(), p_halo.begin());
    s.halo_exchange(0, p_halo);
    s.matvec(0, p_halo, ap, p.intra_matvec, "matvec");
    const double p_ap = s.dot(pv, ap);
    const double alpha = rz / p_ap;
    s.vec_update(1.0, x, alpha, pv, x);
    s.vec_update(1.0, r, -alpha, ap, r);
    s.precondition(r, z);
    const double rz_new = s.dot(r, z);
    const double beta = rz_new / rz;
    rz = rz_new;
    s.vec_update(1.0, z, beta, pv, pv);
    ++result.iterations;
  }
  result.rnorm = std::sqrt(s.dot(r, r));
  return result;
}

AmgResult solve_gmres(AmgSolver& s, const AmgParams& p,
                      std::span<const double> bvec) {
  const std::size_t n = s.n();
  const int m = p.gmres_restart;
  std::vector<double> x(n, 0.0);
  std::vector<std::vector<double>> v(
      static_cast<std::size_t>(m) + 1, std::vector<double>(n, 0.0));
  std::vector<double> w(n), z(n), r(n), tmp_halo(s.fine().a->vector_len(), 0.0);
  std::vector<double> h(static_cast<std::size_t>((m + 1) * m), 0.0);
  std::vector<double> cs(static_cast<std::size_t>(m)),
      sn(static_cast<std::size_t>(m)), g(static_cast<std::size_t>(m) + 1);
  const auto H = [&](int i, int j) -> double& {
    return h[static_cast<std::size_t>(i) * static_cast<std::size_t>(m) +
             static_cast<std::size_t>(j)];
  };

  AmgResult result;
  for (int restart = 0; restart < p.iterations; ++restart) {
    // r = M^{-1}(b - A x).
    std::copy(x.begin(), x.end(), tmp_halo.begin());
    s.halo_exchange(0, tmp_halo);
    s.matvec(0, tmp_halo, r, p.intra_matvec, "matvec");
    s.vec_update(1.0, bvec, -1.0, r, r);
    s.precondition(r, z);
    double beta = std::sqrt(s.dot(z, z));
    if (restart == 0) result.rnorm0 = beta;
    if (beta == 0.0) break;
    s.vec_update(1.0 / beta, z, 0.0, z, v[0]);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int steps = 0;
    for (int j = 0; j < m; ++j) {
      // w = M^{-1} A v_j.
      std::copy(v[static_cast<std::size_t>(j)].begin(),
                v[static_cast<std::size_t>(j)].end(), tmp_halo.begin());
      s.halo_exchange(0, tmp_halo);
      s.matvec(0, tmp_halo, r, p.intra_matvec, "matvec");
      s.precondition(r, w);
      // Modified Gram-Schmidt.
      for (int i = 0; i <= j; ++i) {
        H(i, j) = s.dot(w, v[static_cast<std::size_t>(i)]);
        s.vec_update(1.0, w, -H(i, j), v[static_cast<std::size_t>(i)], w);
      }
      H(j + 1, j) = std::sqrt(s.dot(w, w));
      if (H(j + 1, j) > 1e-300) {
        s.vec_update(1.0 / H(j + 1, j), w, 0.0, w,
                     v[static_cast<std::size_t>(j) + 1]);
      }
      // Givens rotations to maintain the QR of H.
      for (int i = 0; i < j; ++i) {
        const double t = cs[static_cast<std::size_t>(i)] * H(i, j) +
                         sn[static_cast<std::size_t>(i)] * H(i + 1, j);
        H(i + 1, j) = -sn[static_cast<std::size_t>(i)] * H(i, j) +
                      cs[static_cast<std::size_t>(i)] * H(i + 1, j);
        H(i, j) = t;
      }
      const double denom =
          std::sqrt(H(j, j) * H(j, j) + H(j + 1, j) * H(j + 1, j));
      cs[static_cast<std::size_t>(j)] = H(j, j) / denom;
      sn[static_cast<std::size_t>(j)] = H(j + 1, j) / denom;
      H(j, j) = denom;
      H(j + 1, j) = 0.0;
      g[static_cast<std::size_t>(j) + 1] =
          -sn[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] =
          cs[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      ++steps;
      ++result.iterations;
    }

    // Back-substitution: y = H^{-1} g, then x += V y.
    std::vector<double> y(static_cast<std::size_t>(steps), 0.0);
    for (int i = steps - 1; i >= 0; --i) {
      double acc = g[static_cast<std::size_t>(i)];
      for (int k = i + 1; k < steps; ++k)
        acc -= H(i, k) * y[static_cast<std::size_t>(k)];
      y[static_cast<std::size_t>(i)] = acc / H(i, i);
    }
    for (int i = 0; i < steps; ++i) {
      s.vec_update(1.0, x, y[static_cast<std::size_t>(i)],
                   v[static_cast<std::size_t>(i)], x);
    }
    result.rnorm = std::abs(g[static_cast<std::size_t>(steps)]);
  }
  return result;
}

}  // namespace

AmgResult amg(AppContext& ctx, const AmgParams& p) {
  AmgSolver solver(ctx, p);
  // Right-hand side: A * ones, so the exact solution is all ones (as in the
  // HPCCG proxy; AMG2013 uses a comparable Laplace-type problem). That
  // product is the operator's row sums, charged as the sparsemv it stands
  // for.
  std::vector<double> b(solver.n());
  {
    mpi::ScopedPhase sp(ctx.proc, "setup");
    ctx.proc.compute(kernels::row_sums(*solver.fine().a, b));
  }
  if (p.solver == AmgParams::Solver::kPCG)
    return solve_pcg(solver, p, std::move(b));
  return solve_gmres(solver, p, b);
}

}  // namespace repmpi::apps
