#pragma once

// HPCCG's three computational kernels (paper Sections IV and V-C), as plain
// sequential routines that also report their machine-model cost. The cost
// constants encode each kernel's arithmetic intensity, which is what drives
// the paper's Fig. 5a trade-off:
//
//   kernel    flops/elem   touched bytes/elem   output bytes/elem
//   waxpby        2              24                    8
//   ddot          2              16                    8/n  (one scalar)
//   sparsemv   ~2*27          ~27*12 + 16              8

#include <span>

#include "net/machine_model.hpp"

namespace repmpi::kernels {

/// w = alpha*x + beta*y.
net::ComputeCost waxpby(double alpha, std::span<const double> x, double beta,
                        std::span<const double> y, std::span<double> w);

/// Returns x . y in *out.
net::ComputeCost ddot(std::span<const double> x, std::span<const double> y,
                      double* out);

/// Per-element cost constants (used by tasks that process sub-ranges).
inline net::ComputeCost waxpby_cost(std::size_t n) {
  return {2.0 * static_cast<double>(n), 24.0 * static_cast<double>(n)};
}
inline net::ComputeCost ddot_cost(std::size_t n) {
  return {2.0 * static_cast<double>(n), 16.0 * static_cast<double>(n)};
}

}  // namespace repmpi::kernels
