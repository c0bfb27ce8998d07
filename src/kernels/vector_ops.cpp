#include "kernels/vector_ops.hpp"

#include <vector>

#include "kernels/backend.hpp"
#include "support/error.hpp"

namespace repmpi::kernels {

net::ComputeCost waxpby(double alpha, std::span<const double> x, double beta,
                        std::span<const double> y, std::span<double> w) {
  REPMPI_CHECK(x.size() == y.size() && y.size() == w.size());
  // HPCCG special-cases alpha==1/beta==1; the arithmetic shortcut does not
  // change the memory-bound cost, so one code path suffices here.
  const KernelTimer timer(KernelFamily::kVector);
  const BackendOps& ops = active_ops();
  const std::size_t n = w.size();
  if (ops.kind != Backend::kScalar && verify_backend_active()) {
    // w may alias x or y (the solver's inout vectors), so snapshot the
    // inputs before the SIMD pass and recompute scalar from the snapshots.
    std::vector<double> sx(x.begin(), x.end()), sy(y.begin(), y.end());
    ops.waxpby(alpha, x.data(), beta, y.data(), w.data(), n);
    std::vector<double> want(n);
    backend_ops(Backend::kScalar)
        .waxpby(alpha, sx.data(), beta, sy.data(), want.data(), n);
    verify_backend_match("waxpby", w.data(), want.data(), n);
  } else {
    ops.waxpby(alpha, x.data(), beta, y.data(), w.data(), n);
  }
  return waxpby_cost(n);
}

net::ComputeCost ddot(std::span<const double> x, std::span<const double> y,
                      double* out) {
  REPMPI_CHECK(x.size() == y.size() && out != nullptr);
  const KernelTimer timer(KernelFamily::kVector);
  const BackendOps& ops = active_ops();
  *out = ops.ddot(x.data(), y.data(), x.size());
  if (ops.kind != Backend::kScalar && verify_backend_active()) {
    const double want =
        backend_ops(Backend::kScalar).ddot(x.data(), y.data(), x.size());
    verify_backend_match("ddot", out, &want, 1);
  }
  return ddot_cost(x.size());
}

}  // namespace repmpi::kernels
