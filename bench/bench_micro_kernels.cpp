// Per-backend kernel throughput (google-benchmark): SpMV row gather,
// 27-point stencil, PIC gather/scatter and the vector ops, each at a smoke
// and a full working-set size, registered once per backend the host
// supports. This is where the SIMD speedup of the batch kernels is measured
// in isolation — the repmpi_bench figures show it diluted by the
// simulation substrate around the kernels.
//
// Benchmarks are registered dynamically (benchmark::RegisterBenchmark)
// because the backend list is a runtime CPUID question; each benchmark
// installs its backend with a ScopedBackend for the timing loop.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/backend.hpp"
#include "kernels/pic.hpp"
#include "kernels/sparse.hpp"
#include "kernels/stencil.hpp"
#include "kernels/vector_ops.hpp"
#include "support/rng.hpp"

namespace repmpi {
namespace {

/// Deterministic non-trivial fill (no denormals, varied mantissas).
void fill(std::vector<double>& v, std::uint64_t salt) {
  support::Rng rng(0x9e3779b97f4a7c15ull ^ salt);
  for (auto& x : v) x = rng.next_double() * 2.0 - 1.0;
}

void bm_spmv(benchmark::State& state, kernels::Backend b, int n) {
  const kernels::ScopedBackend scope(b);
  const auto a = kernels::grid_matrix_cached(kernels::Stencil::k27pt, n, n, n,
                                            true, true);
  std::vector<double> x(a->vector_len());
  std::vector<double> y(static_cast<std::size_t>(a->rows()));
  fill(x, 1);
  for (auto _ : state) {
    kernels::csr_row_gather(*a, x, y, 0, a->rows());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * a->rows());
}

void bm_stencil27(benchmark::State& state, kernels::Backend b, int n) {
  const kernels::ScopedBackend scope(b);
  kernels::Grid3D in(n, n, n), out(n, n, n);
  fill(in.data, 2);
  for (auto _ : state) {
    kernels::stencil27(in, out);
    benchmark::DoNotOptimize(out.data.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(in.interior()));
}

constexpr double kLx = 64.0, kLy = 64.0;
constexpr int kGrid = 64;

void bm_pic_charge(benchmark::State& state, kernels::Backend b,
                   std::size_t n) {
  const kernels::ScopedBackend scope(b);
  kernels::Particles p;
  kernels::init_particles(p, n, kLx, kLy, support::Rng(7));
  kernels::Field2D grid(kGrid, kGrid);
  for (auto _ : state) {
    kernels::charge_deposit(p, 0, n, kLx, kLy, grid);
    benchmark::DoNotOptimize(grid.v.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void bm_pic_push(benchmark::State& state, kernels::Backend b, std::size_t n) {
  const kernels::ScopedBackend scope(b);
  kernels::Particles p;
  kernels::init_particles(p, n, kLx, kLy, support::Rng(7));
  kernels::Field2D charge(kGrid, kGrid), ex(kGrid, kGrid), ey(kGrid, kGrid);
  kernels::charge_deposit(p, 0, n, kLx, kLy, charge);
  kernels::field_solve(charge, ex, ey);
  for (auto _ : state) {
    kernels::push(p.x, p.y, p.vx, p.vy, p.rho, kLx, kLy, 0.05, ex, ey);
    benchmark::DoNotOptimize(p.x.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void bm_axpy(benchmark::State& state, kernels::Backend b, std::size_t n) {
  const kernels::ScopedBackend scope(b);
  std::vector<double> x(n), y(n);
  fill(x, 3);
  fill(y, 4);
  for (auto _ : state) {
    kernels::axpy(1e-9, x, y);  // tiny alpha: y stays bounded
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void bm_ddot(benchmark::State& state, kernels::Backend b, std::size_t n) {
  const kernels::ScopedBackend scope(b);
  std::vector<double> x(n), y(n);
  fill(x, 5);
  fill(y, 6);
  double out = 0.0;
  for (auto _ : state) {
    kernels::ddot(x, y, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}

void register_for_backend(kernels::Backend b) {
  const std::string tag = kernels::to_string(b);
  const auto reg = [&](const char* kernel, const char* size, auto fn,
                       auto arg) {
    benchmark::RegisterBenchmark(
        (std::string(kernel) + "/" + tag + "/" + size).c_str(),
        [fn, b, arg](benchmark::State& st) { fn(st, b, arg); });
  };
  reg("spmv", "smoke", bm_spmv, 16);
  reg("spmv", "full", bm_spmv, 64);
  reg("stencil27", "smoke", bm_stencil27, 16);
  reg("stencil27", "full", bm_stencil27, 64);
  reg("pic_charge", "smoke", bm_pic_charge, std::size_t{4096});
  reg("pic_charge", "full", bm_pic_charge, std::size_t{262144});
  reg("pic_push", "smoke", bm_pic_push, std::size_t{4096});
  reg("pic_push", "full", bm_pic_push, std::size_t{262144});
  reg("axpy", "smoke", bm_axpy, std::size_t{4096});
  reg("axpy", "full", bm_axpy, std::size_t{1} << 20);
  reg("ddot", "smoke", bm_ddot, std::size_t{4096});
  reg("ddot", "full", bm_ddot, std::size_t{1} << 20);
}

}  // namespace
}  // namespace repmpi

int main(int argc, char** argv) {
  using repmpi::kernels::Backend;
  for (Backend b : {Backend::kScalar, Backend::kAvx2}) {
    if (repmpi::kernels::backend_supported(b))
      repmpi::register_for_backend(b);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
