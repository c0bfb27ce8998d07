#pragma once

// Intra-parallelized wrappers for the HPCCG-style kernels — the Fig. 4
// pattern of the paper: register one task function, launch N tasks over
// equal sub-ranges, close the section. When `enabled` is false the kernel
// runs directly (an "unmodified part of the code"), i.e., fully on every
// replica.

#include <span>
#include <string>

#include "apps/runner.hpp"
#include "kernels/sparse.hpp"
#include "kernels/stencil.hpp"
#include "kernels/vector_ops.hpp"

namespace repmpi::apps {

/// Number of tasks per section used throughout the evaluation (paper V-B:
/// "a granularity of 8 tasks per section, i.e., 4 tasks per replica").
constexpr int kDefaultTasksPerSection = 8;

/// w = alpha*x + beta*y, attributed to `phase`. When w aliases x or y (CG's
/// x = x + alpha*p updates in place), pass out_tag = kInOut: the task then
/// reads its own output region, which requires the Fig.-2 extra-copy
/// discipline for safe re-execution. The Fig. 5a microkernel uses a
/// separate w (the paper: "none of the variables are read and written").
void waxpby_section(AppContext& ctx, const std::string& phase, double alpha,
                    std::span<const double> x, double beta,
                    std::span<const double> y, std::span<double> w,
                    bool enabled, int num_tasks = kDefaultTasksPerSection,
                    intra::ArgTag out_tag = intra::ArgTag::kOut);

/// Local dot product (reduction over ranks is the caller's business — the
/// paper excludes it from the kernel timing, footnote 6).
double ddot_section(AppContext& ctx, const std::string& phase,
                    std::span<const double> x, std::span<const double> y,
                    bool enabled, int num_tasks = kDefaultTasksPerSection);

/// y = A*x over the local rows; x must include halo planes.
void sparsemv_section(AppContext& ctx, const std::string& phase,
                      const kernels::CsrMatrix& a, std::span<const double> x,
                      std::span<double> y, bool enabled,
                      int num_tasks = kDefaultTasksPerSection);

/// Exchanges boundary z-planes with the logical z-neighbours, attributed to
/// phase "comm": `bottom` goes to rank - 1 (tag tag_base + 1) and `top` to
/// rank + 1 (tag tag_base), and the neighbours' planes land in `bottom_halo`
/// and `top_halo`. Both receives are posted before either send.
void z_halo_exchange(AppContext& ctx, std::span<const double> bottom,
                     std::span<const double> top,
                     std::span<double> bottom_halo,
                     std::span<double> top_halo, int tag_base);

/// Sum of the grid interior (MiniGhost's GRID_SUM).
double grid_sum_section(AppContext& ctx, const std::string& phase,
                        const kernels::Grid3D& g, bool enabled,
                        int num_tasks = kDefaultTasksPerSection);

}  // namespace repmpi::apps
