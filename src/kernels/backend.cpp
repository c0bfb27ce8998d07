#include "kernels/backend.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "kernels/backend_detail.hpp"
#include "support/error.hpp"

namespace repmpi::kernels {

namespace {

const BackendOps kScalarOps{
    Backend::kScalar,           detail::waxpby_scalar,
    detail::ddot_scalar,        detail::gather_table_scalar,
    detail::stencil_row_scalar, detail::charge_scalar,
    detail::push_scalar,
};

bool cpu_has_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

/// The process-wide ops table; null until first use detects the CPU.
std::atomic<const BackendOps*> g_active{nullptr};

/// -1 = consult the environment on first use; 0/1 = resolved or overridden.
std::atomic<int> g_verify{-1};

thread_local KernelTotals t_kernel_totals;

}  // namespace

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kAuto:
      return "auto";
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "?";
}

bool backend_from_string(std::string_view name, Backend* out) {
  if (name == "auto") *out = Backend::kAuto;
  else if (name == "scalar") *out = Backend::kScalar;
  else if (name == "avx2") *out = Backend::kAvx2;
  else return false;
  return true;
}

bool backend_compiled(Backend b) {
  switch (b) {
    case Backend::kAuto:
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#ifdef REPMPI_HAVE_AVX2
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool backend_supported(Backend b) {
  if (!backend_compiled(b)) return false;
  return b != Backend::kAvx2 || cpu_has_avx2();
}

Backend detect_backend() {
  return backend_supported(Backend::kAvx2) ? Backend::kAvx2 : Backend::kScalar;
}

const BackendOps& backend_ops(Backend b) {
  if (b == Backend::kAuto) b = detect_backend();
  REPMPI_CHECK_MSG(backend_supported(b), "kernel backend '" << to_string(b)
                       << "' is not supported on this host");
  switch (b) {
#ifdef REPMPI_HAVE_AVX2
    case Backend::kAvx2:
      return detail::avx2_ops();
#endif
    default:
      return kScalarOps;
  }
}

const BackendOps& active_ops() {
  const BackendOps* ops = g_active.load();
  if (ops != nullptr) return *ops;
  // First use detects the CPU, unless a concurrent setter got there first.
  const BackendOps& detected = backend_ops(Backend::kAuto);
  return g_active.compare_exchange_strong(ops, &detected) ? detected : *ops;
}

Backend active_backend() { return active_ops().kind; }

void set_active_backend(Backend b) {
  g_active.store(&backend_ops(b));
}

bool verify_backend_active() {
  int v = g_verify.load(std::memory_order_relaxed);
  if (v < 0) {
    const char* e = std::getenv("REPMPI_VERIFY_BACKEND");
    v = (e != nullptr && e[0] != '\0' && std::strcmp(e, "0") != 0) ? 1 : 0;
    g_verify.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

void set_verify_backend(bool on) {
  g_verify.store(on ? 1 : 0, std::memory_order_relaxed);
}

void verify_backend_match(const char* kernel, const double* got,
                          const double* want, std::size_t n) {
  if (n == 0 || std::memcmp(got, want, n * sizeof(double)) == 0) return;
  std::size_t i = 0;
  while (i < n && std::memcmp(&got[i], &want[i], sizeof(double)) == 0) ++i;
  REPMPI_CHECK_MSG(false, "REPMPI_VERIFY_BACKEND: '"
                              << kernel << "' on backend '"
                              << to_string(active_backend())
                              << "' diverges from scalar at element " << i
                              << ": " << got[i] << " != " << want[i]);
}

KernelTotals kernel_totals() { return t_kernel_totals; }

KernelTimer::~KernelTimer() {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  t_kernel_totals.ns[static_cast<int>(f_)] += static_cast<std::uint64_t>(ns);
}

}  // namespace repmpi::kernels
