#pragma once

// Pluggable kernel backends: scalar and AVX2 implementations of the four
// kernel families (SpMV row gather, 27-point stencil rows, PIC charge/push,
// vector ops), selected at runtime by CPUID dispatch with a compile-time
// fallback (a build without AVX2 support has only the scalar backend).
//
// The contract that makes a backend swappable at all: the scalar backend is
// the bit-exact reference, and every SIMD path preserves the scalar
// accumulation order *per output element*. SIMD lanes map to independent
// outputs (rows, cells, particles), reductions that feed one output stay
// lane-ordered, and the SIMD translation units are compiled with
// -ffp-contract=off so no multiply-add pair is fused into an FMA the scalar
// reference never executed. Virtual-time results — efficiencies, event and
// message counts, determinism fingerprints, ComputeCache bytes — are
// therefore identical under every backend, which is what lets the drift
// gate run the same baseline at the default (AVX2) and --backend=scalar, and
// what makes a shared-compute cache hit backend-agnostic.
//
// Enforcement: REPMPI_VERIFY_BACKEND=1 (or set_verify_backend) makes every
// dispatched kernel re-run its inputs through the scalar reference and
// abort on the first differing bit — the same recompute-and-compare
// discipline as REPMPI_VERIFY_SHARED_COMPUTE.
//
// Selection: one process-wide backend. It starts as detect_backend() (the
// best compiled backend the host supports) and repmpi_bench --backend=
// replaces it with set_active_backend() before any run starts. Every thread
// reads the same table, sharded-engine workers included, so nothing is
// installed per run or per thread.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "kernels/pic.hpp"
#include "kernels/sparse.hpp"

namespace repmpi::kernels {

enum class Backend : int {
  kAuto = 0,    ///< resolve to detect_backend() at use
  kScalar = 1,  ///< bit-exact reference, always compiled
  kAvx2 = 2,    ///< 4-wide doubles (compiled when the toolchain has -mavx2)
};

const char* to_string(Backend b);
/// Parses "auto" / "scalar" / "avx2"; false on anything else.
bool backend_from_string(std::string_view name, Backend* out);

/// The backend's translation unit is built into this binary.
bool backend_compiled(Backend b);
/// Compiled *and* the host CPU executes it (CPUID). kAuto/kScalar: always.
bool backend_supported(Backend b);
/// Best supported backend: avx2 > scalar.
Backend detect_backend();

/// The process-wide backend (resolved; never kAuto).
Backend active_backend();
/// Replaces the process-wide backend; kAuto selects detect_backend().
/// REPMPI_CHECKs that the backend is supported on this host. Meant to be
/// called before runs start; a switch during a run is race-free and changes
/// no result bit, since every backend computes the scalar reference's bits.
void set_active_backend(Backend b);

/// One batched-execution entry point per kernel family. All pointers are
/// non-null in every table; public kernel APIs (sparse/stencil/pic/
/// vector_ops) keep their signatures and dispatch through the active table
/// internally, so callers never see the seam.
struct BackendOps {
  Backend kind = Backend::kScalar;
  /// w[i] = alpha*x[i] + beta*y[i] (w may alias x or y).
  void (*waxpby)(double alpha, const double* x, double beta, const double* y,
                 double* w, std::size_t n);
  /// y[i] += alpha*x[i].
  void (*axpy)(double alpha, const double* x, double* y, std::size_t n);
  /// Returns sum_i x[i]*y[i] in scalar accumulation order (lane-ordered).
  double (*ddot)(const double* x, const double* y, std::size_t n);
  /// acc[r - r0] = one structured row per r in [r0, r1) from a fixed
  /// (offset, weight) table — csr_row_gather's interior-run unit.
  void (*gather_table)(const double* xp, double* acc, std::int64_t r0,
                       std::int64_t r1, const StencilTables::Table& t);
  /// orow[x] for x in [x0, x1) = 27-point average from nine row pointers —
  /// stencil27's interior-row unit.
  void (*stencil_row)(const double* const* rows, double* orow, int x0,
                      int x1);
  /// charge_deposit body: accumulate particles [i0, i1) into `partial`.
  void (*charge)(const Particles& p, std::size_t i0, std::size_t i1,
                 double lx, double ly, Field2D& partial);
  /// push body over n particles (SoA pointers), in place.
  void (*push)(double* x, double* y, double* vx, double* vy,
               const double* rho, std::size_t n, double lx, double ly,
               double dt, const Field2D& ex, const Field2D& ey);
};

/// Ops table of the process-wide backend.
const BackendOps& active_ops();
/// Ops table for a specific backend (kAuto = detect_backend()); REPMPI_CHECKs
/// that it is supported on this host.
const BackendOps& backend_ops(Backend b);

// --- Recompute-and-compare mode --------------------------------------------

/// True when REPMPI_VERIFY_BACKEND=1 (or set_verify_backend(true)): every
/// kernel executed on a non-scalar backend is recomputed through the scalar
/// reference and compared bit for bit.
bool verify_backend_active();
/// Runtime override for tests; wins over the environment.
void set_verify_backend(bool on);
/// Aborts (InvariantError) unless got[0..n) == want[0..n) bitwise.
void verify_backend_match(const char* kernel, const double* got,
                          const double* want, std::size_t n);

// --- Host-side kernel timing counters --------------------------------------
//
// Thread-local nanosecond totals per kernel family, mirroring
// sim::substrate_totals(): perfbench snapshots them around each classic-
// engine round and reports the deltas as its kernels.spmv_s /
// kernels.vector_s / kernels.share probes. Kernel time spent on
// sharded-engine workers stays in those workers' totals; it never reaches
// the thread that called run_app.

enum class KernelFamily : int {
  kSpmv = 0,
  kStencil,
  kPicCharge,
  kPicPush,
  kVector,
  kCount,
};

struct KernelTotals {
  std::uint64_t ns[static_cast<int>(KernelFamily::kCount)] = {};

  KernelTotals& operator-=(const KernelTotals& o) {
    for (int i = 0; i < static_cast<int>(KernelFamily::kCount); ++i)
      ns[i] -= o.ns[i];
    return *this;
  }
};

/// The calling thread's totals.
KernelTotals kernel_totals();

/// RAII wall-clock accumulation into the calling thread's totals.
class KernelTimer {
 public:
  explicit KernelTimer(KernelFamily f)
      : f_(f), start_(std::chrono::steady_clock::now()) {}
  ~KernelTimer();
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  KernelFamily f_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace repmpi::kernels
