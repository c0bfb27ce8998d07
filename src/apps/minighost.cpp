#include "apps/minighost.hpp"

#include <vector>

#include "kernels/stencil.hpp"

namespace repmpi::apps {

namespace {

using kernels::Grid3D;

/// Stencil sweep, either as an intra section (z-plane block tasks, out is a
/// contiguous block of whole planes) or as unmodified compute.
void stencil_step(AppContext& ctx, const MiniGhostParams& p, const Grid3D& in,
                  Grid3D& out) {
  mpi::ScopedPhase sp(ctx.proc, "stencil");
  if (!p.intra_stencil) {
    // Unmodified-code sweep: all replicas compute identical planes — share
    // the interior (the only range stencil27 writes) across them.
    ctx.proc.compute(ctx.share.shared(
        "stencil", {std::as_writable_bytes(out.interior_span())},
        [&] { return kernels::stencil27(in, out); }));
    return;
  }
  // The configuration the paper measured as unprofitable: one task per
  // z-plane block, output = the block's interior planes.
  const int tasks = std::min(p.tasks_per_section, in.nz);
  intra::Section section(ctx.intra);
  const int id = ctx.intra.register_task(
      [&in, &out](intra::TaskArgs& a) -> net::ComputeCost {
        auto planes = a.get<double>(0);
        const std::size_t off = static_cast<std::size_t>(
            planes.data() - out.interior_span().data());
        const int z0 = static_cast<int>(off / out.plane());
        const int z1 = z0 + static_cast<int>(planes.size() / out.plane());
        return kernels::stencil27_range(in, out, z0, z1);
      },
      {{intra::ArgTag::kOut, sizeof(double)}});
  for (int t = 0; t < tasks; ++t) {
    const int z0 = in.nz * t / tasks;
    const int z1 = in.nz * (t + 1) / tasks;
    ctx.intra.launch(
        id, {intra::Binding::of(out.interior_span().subspan(
                out.plane() * static_cast<std::size_t>(z0),
                out.plane() * static_cast<std::size_t>(z1 - z0)))});
  }
}

}  // namespace

MiniGhostResult minighost(AppContext& ctx, const MiniGhostParams& p) {
  // num_vars stenciled variables; variable 0 is the one summed for error
  // checking (GRID_SUM, the intra-parallelized kernel).
  std::vector<Grid3D> vars, next;
  for (int v = 0; v < p.num_vars; ++v) {
    vars.emplace_back(p.nx, p.ny, p.nz);
    next.emplace_back(p.nx, p.ny, p.nz);
    // Deterministic, rank-dependent initial condition (same on replicas:
    // ctx.rng is a per-logical-rank stream, forked per variable — so the
    // draws can be shared across replicas like any other kernel region).
    ctx.share.shared(
        "init", {std::as_writable_bytes(std::span(vars.back().data))},
        [&]() -> net::ComputeCost {
          support::Rng rng = ctx.rng.fork(static_cast<std::uint64_t>(v));
          for (double& c : vars.back().data) c = rng.uniform(0.0, 2.0);
          return {};
        });
  }

  MiniGhostResult result;
  for (int step = 0; step < p.steps; ++step) {
    for (int v = 0; v < p.num_vars; ++v) {
      Grid3D& g = vars[static_cast<std::size_t>(v)];
      z_halo_exchange(ctx, g.bottom_interior_plane(), g.top_interior_plane(),
                      g.bottom_halo(), g.top_halo(),
                      2000 + (step * p.num_vars + v) * 2);
      stencil_step(ctx, p, vars[static_cast<std::size_t>(v)],
                   next[static_cast<std::size_t>(v)]);
      std::swap(vars[static_cast<std::size_t>(v)],
                next[static_cast<std::size_t>(v)]);
    }
    const double local =
        grid_sum_section(ctx, "gridsum", vars[0], p.intra_grid_sum,
                         p.tasks_per_section);
    {
      mpi::ScopedPhase sp(ctx.proc, "comm");
      result.final_sum =
          ctx.comm.allreduce_value(local, mpi::ReduceOp::kSum);
    }
    ++result.steps;
  }
  return result;
}

}  // namespace repmpi::apps
