#include "apps/kernel_sections.hpp"

#include <array>
#include <memory_resource>
#include <numeric>
#include <vector>

namespace repmpi::apps {

using intra::ArgTag;
using intra::Binding;
using intra::Section;
using intra::TaskArgs;

// A task body captures at most 16 bytes, e.g. one pointer to a local struct
// of its arguments: std::function (libstdc++) stores that inline, so
// registering the task allocates nothing.

namespace {
/// Splits n items into `parts` near-equal contiguous ranges.
struct Ranges {
  std::size_t n;
  int parts;
  std::size_t begin(int i) const {
    return n * static_cast<std::size_t>(i) / static_cast<std::size_t>(parts);
  }
  std::size_t end(int i) const { return begin(i + 1); }
};

/// Per-task partial results and task ids of a reduction section. They live
/// in a stack buffer up to the evaluated granularities (the buffer holds 64
/// tasks), so such a section allocates nothing; larger counts spill to the
/// heap.
struct TaskSlots {
  explicit TaskSlots(int num_tasks)
      : partial(static_cast<std::size_t>(num_tasks), 0.0, &arena),
        indices(static_cast<std::size_t>(num_tasks), &arena) {}

  alignas(double)
      std::array<std::byte, 64 * (sizeof(double) + sizeof(int))> buf;
  std::pmr::monotonic_buffer_resource arena{buf.data(), buf.size()};
  std::pmr::vector<double> partial;
  std::pmr::vector<int> indices;
};
}  // namespace

void waxpby_section(AppContext& ctx, const std::string& phase, double alpha,
                    std::span<const double> x, double beta,
                    std::span<const double> y, std::span<double> w,
                    bool enabled, int num_tasks, intra::ArgTag out_tag) {
  mpi::ScopedPhase sp(ctx.proc, phase);
  if (!enabled) {
    // "Unmodified part of the code": every replica runs the full kernel —
    // on the host, compute it once per logical rank and share the result.
    ctx.proc.compute(ctx.share.shared(
        phase, {std::as_writable_bytes(w)},
        [&] { return kernels::waxpby(alpha, x, beta, y, w); }));
    return;
  }
  const struct {
    double alpha, beta;
    std::span<const double> x, y;
    std::span<double> w;
  } k{alpha, beta, x, y, w};
  Section section(ctx.intra);
  const int id = ctx.intra.register_task(
      [&k](TaskArgs& a) -> net::ComputeCost {
        // The range is identified by the out binding's offset within w.
        auto wt = a.get<double>(0);
        const auto off = static_cast<std::size_t>(wt.data() - k.w.data());
        return kernels::waxpby(k.alpha, k.x.subspan(off, wt.size()), k.beta,
                               k.y.subspan(off, wt.size()), wt);
      },
      {{out_tag, sizeof(double)}});
  const Ranges r{w.size(), num_tasks};
  for (int t = 0; t < num_tasks; ++t) {
    ctx.intra.launch(
        id, {Binding::of(w.subspan(r.begin(t), r.end(t) - r.begin(t)))});
  }
}

double ddot_section(AppContext& ctx, const std::string& phase,
                    std::span<const double> x, std::span<const double> y,
                    bool enabled, int num_tasks) {
  mpi::ScopedPhase sp(ctx.proc, phase);
  if (!enabled) {
    double out = 0;
    ctx.proc.compute(ctx.share.shared(
        phase, {support::as_writable_bytes_of(out)},
        [&] { return kernels::ddot(x, y, &out); }));
    return out;
  }
  TaskSlots slots(num_tasks);
  std::pmr::vector<double>& partial = slots.partial;
  // Task index travels as an `in` argument (never transferred; every replica
  // holds identical copies, which keeps re-execution deterministic).
  std::pmr::vector<int>& indices = slots.indices;
  const struct {
    std::span<const double> x, y;
    Ranges r;
  } k{x, y, {x.size(), num_tasks}};
  {
    Section section(ctx.intra);
    const int id = ctx.intra.register_task(
        [&k](TaskArgs& a) -> net::ComputeCost {
          const int t = a.scalar_in<int>(0);
          const std::size_t b = k.r.begin(t);
          const std::size_t e = k.r.end(t);
          return kernels::ddot(k.x.subspan(b, e - b), k.y.subspan(b, e - b),
                               &a.scalar<double>(1));
        },
        {{ArgTag::kIn, sizeof(int)}, {ArgTag::kOut, sizeof(double)}});
    for (int t = 0; t < num_tasks; ++t) {
      indices[static_cast<std::size_t>(t)] = t;
      ctx.intra.launch(
          id, {Binding::scalar(indices[static_cast<std::size_t>(t)]),
               Binding::scalar(partial[static_cast<std::size_t>(t)])});
    }
  }
  return std::accumulate(partial.begin(), partial.end(), 0.0);
}

void sparsemv_section(AppContext& ctx, const std::string& phase,
                      const kernels::CsrMatrix& a, std::span<const double> x,
                      std::span<double> y, bool enabled, int num_tasks) {
  mpi::ScopedPhase sp(ctx.proc, phase);
  if (!enabled) {
    // The kernel writes exactly y[0, rows) (y may carry extra capacity).
    const auto written = y.first(static_cast<std::size_t>(a.rows()));
    ctx.proc.compute(ctx.share.shared(
        phase, {std::as_writable_bytes(written)},
        [&] { return kernels::sparsemv(a, x, y); }));
    return;
  }
  const struct {
    const kernels::CsrMatrix& a;
    std::span<const double> x;
    std::span<double> y;
  } k{a, x, y};
  Section section(ctx.intra);
  const int id = ctx.intra.register_task(
      [&k](TaskArgs& ta) -> net::ComputeCost {
        auto yt = ta.get<double>(0);
        const auto r0 = static_cast<std::int64_t>(yt.data() - k.y.data());
        return kernels::sparsemv_range(
            k.a, k.x, k.y, r0, r0 + static_cast<std::int64_t>(yt.size()));
      },
      {{ArgTag::kOut, sizeof(double)}});
  const Ranges r{static_cast<std::size_t>(a.rows()), num_tasks};
  for (int t = 0; t < num_tasks; ++t) {
    ctx.intra.launch(
        id, {Binding::of(y.subspan(r.begin(t), r.end(t) - r.begin(t)))});
  }
}

double grid_sum_section(AppContext& ctx, const std::string& phase,
                        const kernels::Grid3D& g, bool enabled,
                        int num_tasks) {
  mpi::ScopedPhase sp(ctx.proc, phase);
  if (!enabled) {
    double out = 0;
    ctx.proc.compute(ctx.share.shared(
        phase, {support::as_writable_bytes_of(out)},
        [&] { return kernels::grid_sum_range(g, 0, g.nz, &out); }));
    return out;
  }
  num_tasks = std::min(num_tasks, g.nz);
  TaskSlots slots(num_tasks);
  std::pmr::vector<double>& partial = slots.partial;
  std::pmr::vector<int>& indices = slots.indices;
  const Ranges r{static_cast<std::size_t>(g.nz), num_tasks};
  {
    Section section(ctx.intra);
    const int id = ctx.intra.register_task(
        [&g, &r](TaskArgs& a) -> net::ComputeCost {
          const int t = a.scalar_in<int>(0);
          return kernels::grid_sum_range(g, static_cast<int>(r.begin(t)),
                                         static_cast<int>(r.end(t)),
                                         &a.scalar<double>(1));
        },
        {{ArgTag::kIn, sizeof(int)}, {ArgTag::kOut, sizeof(double)}});
    for (int t = 0; t < num_tasks; ++t) {
      indices[static_cast<std::size_t>(t)] = t;
      ctx.intra.launch(
          id, {Binding::scalar(indices[static_cast<std::size_t>(t)]),
               Binding::scalar(partial[static_cast<std::size_t>(t)])});
    }
  }
  return std::accumulate(partial.begin(), partial.end(), 0.0);
}

}  // namespace repmpi::apps
