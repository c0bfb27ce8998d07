// Steady-state heap traffic of the hot paths: an intra section, the HPCCG
// kernel-section wrappers, a replicated section through the ComputeCache,
// point-to-point streams and a logical allreduce. This binary replaces the
// global operator new with one that counts calls and bytes, runs each loop
// past its warm-up and pins the allocations per iteration (or per message)
// that the loop makes from then on. It also pins the bytes one HPCCG rank
// allocates for its replica state.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "apps/hpccg.hpp"
#include "apps/kernel_sections.hpp"
#include "intra/runtime.hpp"
#include "mpi_test_harness.hpp"
#include "rep_test_harness.hpp"
#include "support/compute_cache.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_bytes{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(n, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= __STDCPP_DEFAULT_NEW_ALIGNMENT__
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Out of line, so the compiler never sees a `new` paired with free().
[[gnu::noinline]] void* operator new(std::size_t n) {
  return counted_alloc(n, 0);
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}

namespace repmpi {
namespace {

/// Counts the allocations made while the measuring rank runs iterations
/// [kWarm, kWarm + iters) of a loop. Every rank runs kTail more iterations,
/// so no peer is starting up or winding down inside the window; allocations
/// by any fiber of the run count.
class AllocWindow {
 public:
  static constexpr int kWarm = 200;
  static constexpr int kTail = 50;

  explicit AllocWindow(int iters) : iters_(iters) {}

  template <typename Body>
  void run(bool measuring, Body&& body) {
    for (int i = 0; i < kWarm + iters_ + kTail; ++i) {
      if (measuring && i == kWarm) begin_ = g_allocations.load();
      if (measuring && i == kWarm + iters_) end_ = g_allocations.load();
      body(i);
    }
  }

  double per_iteration() const {
    return static_cast<double>(end_ - begin_) / iters_;
  }

 private:
  int iters_;
  std::uint64_t begin_ = 0;
  std::uint64_t end_ = 0;
};

/// One section of eight one-argument tasks: each writes its own slot.
void eight_task_section(intra::Runtime& rt, std::array<double, 8>& out) {
  intra::Section section(rt);
  const int id = rt.register_task(
      [](intra::TaskArgs& a) {
        a.scalar<double>(0) += 1.0;
        return net::ComputeCost{1, 16};
      },
      {{intra::ArgTag::kOut, sizeof(double)}});
  for (double& v : out) rt.launch(id, {intra::Binding::scalar(v)});
}

TEST(HotPathAllocs, SharedSectionOfEightTasksAllocatesNothing) {
  testing::RepFixture f(1, 2);
  AllocWindow w(500);
  std::int64_t received = 0;
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    intra::Runtime rt(comm, {});
    std::array<double, 8> out{};
    w.run(proc.world_rank() == 0, [&](int) { eight_task_section(rt, out); });
    received += rt.stats().tasks_received;
  });
  EXPECT_GT(received, 0);  // the update path ran
  EXPECT_EQ(w.per_iteration(), 0.0);
}

TEST(HotPathAllocs, KernelSectionWrappersAllocateNothing) {
  // waxpby, ddot and sparsemv in a degree-2 shared section each: the task
  // body, its registration and the update transfer reuse storage.
  const kernels::CsrMatrix a =
      kernels::build_grid_matrix(kernels::Stencil::k7pt, 4, 4, 8, false, false);
  const apps::RunConfig cfg;
  for (const int kernel : {0, 1, 2}) {
    testing::RepFixture f(1, 2);
    AllocWindow w(200);
    f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
      intra::Runtime rt(comm, {});
      support::ComputeClient share;
      apps::AppContext ctx{proc, comm, rt, cfg, share, support::Rng(1)};
      const std::vector<double> halo(a.vector_len(), 0.5);
      const std::vector<double> v(static_cast<std::size_t>(a.rows()), 0.5);
      std::vector<double> out(v.size());
      double dot = 0;
      w.run(proc.world_rank() == 0, [&](int) {
        if (kernel == 0) {
          apps::waxpby_section(ctx, "waxpby", 2.0, v, 0.5, v, out, true);
        } else if (kernel == 1) {
          dot = apps::ddot_section(ctx, "ddot", v, v, true);
        } else {
          apps::sparsemv_section(ctx, "sparsemv", a, halo, out, true);
        }
      });
      EXPECT_EQ(rt.mode(), intra::Runtime::Mode::kShared);
      if (kernel == 1) {
        EXPECT_EQ(dot, 0.25 * static_cast<double>(v.size()));
      }
    });
    EXPECT_EQ(w.per_iteration(), 0.0) << "kernel " << kernel;
  }
}

TEST(HotPathAllocs, ReplicatedSectionThroughComputeCacheAllocatesNothing) {
  testing::RepFixture f(1, 2);
  support::ComputeCache cache(2);
  AllocWindow w(500);
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    support::ComputeClient client(&cache, comm.rank());
    intra::Runtime rt(comm, {.mode = intra::Runtime::Mode::kAllLocal,
                             .share = &client});
    std::array<double, 8> out{};
    w.run(proc.world_rank() == 0, [&](int) { eight_task_section(rt, out); });
  });
  EXPECT_GT(cache.stats().hits, 0u);  // siblings were served from the cache
  EXPECT_EQ(w.per_iteration(), 0.0);
}

TEST(HotPathAllocs, ExactMatchCommStreamAllocatesNothing) {
  // Ping-pong on a fresh tag per round trip. On odd rounds the receiver
  // posts late, so the message waits in the unexpected queue; on even
  // rounds the receive is posted first.
  testing::MpiFixture f(2);
  AllocWindow w(1000);
  f.run([&](mpi::Proc& proc, mpi::Comm& comm) {
    const int peer = 1 - comm.rank();
    w.run(comm.rank() == 0, [&](int i) {
      if (comm.rank() == 0) {
        comm.send(peer, i, support::as_bytes_of(i));
        mpi::Request r = comm.irecv(peer, i);
        comm.wait(r);
        EXPECT_EQ(support::from_buffer<int>(r.state().data), i + 1);
      } else {
        if (i % 2 == 1) proc.elapse(1e-3);
        mpi::Request r = comm.irecv(peer, i);
        comm.wait(r);
        const int v = support::from_buffer<int>(r.state().data) + 1;
        comm.send(peer, i, support::as_bytes_of(v));
      }
    });
  });
  EXPECT_EQ(w.per_iteration(), 0.0);
}

TEST(HotPathAllocs, AllreduceValueAllocatesNothing) {
  testing::RepFixture f(4, 1);
  AllocWindow w(500);
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    w.run(proc.world_rank() == 0, [&](int i) {
      const double sum =
          comm.allreduce_value(static_cast<double>(i), mpi::ReduceOp::kSum);
      EXPECT_EQ(sum, 4.0 * i);
    });
  });
  EXPECT_EQ(w.per_iteration(), 0.0);
}

TEST(HotPathAllocs, LogicalStreamWithFreshTagsAmortisesToNearZero) {
  // Replicated ping-pong, a fresh tag per message: each stream settles to
  // a bit, so the only allocations left are the doublings of the tables'
  // settled-bit words, amortised over the messages.
  testing::RepFixture f(2, 2);
  constexpr int kRoundTrips = 4000;
  AllocWindow w(kRoundTrips);
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    const int peer = 1 - comm.rank();
    w.run(proc.world_rank() == 0, [&](int i) {
      if (comm.rank() == 0) {
        comm.send_value(peer, i, i);
        rep::LogicalRequest r = comm.irecv(peer, i);
        comm.wait(r);
        EXPECT_EQ(support::from_buffer<int>(r.data), i + 1);
      } else {
        rep::LogicalRequest r = comm.irecv(peer, i);
        comm.wait(r);
        comm.send_value(peer, i, support::from_buffer<int>(r.data) + 1);
      }
    });
  });
  EXPECT_LE(w.per_iteration() / 2, 0.01);  // two messages per round trip
}

TEST(HotPathAllocs, HpccgRankAllocatesOnlyItsFourCgVectors) {
  // Every replica of every logical rank holds its own copy of the app
  // state, so each per-rank array is paid degree x ranks times in host
  // memory. One HPCCG rank's state is the four CG vectors x, r, Ap and p
  // (p with its two halo planes); the operator is shared through the
  // grid_matrix_cached memo, warmed here. The slack (phase names, requests,
  // section bookkeeping) is a quarter of one vector, so a fifth vector fails.
  apps::HpccgParams p;
  p.nx = p.ny = 16;
  p.nz = 32;
  p.iterations = 2;
  const auto a = kernels::grid_matrix_cached(kernels::Stencil::k27pt, p.nx,
                                             p.ny, p.nz, false, false);
  const std::uint64_t vector_bytes = a->interior() * sizeof(double);
  const std::uint64_t cg_vectors =
      3 * vector_bytes + a->vector_len() * sizeof(double);
  const std::uint64_t slack = vector_bytes / 4;
  const apps::RunConfig cfg;
  testing::RepFixture f(1, 1);
  std::uint64_t bytes = 0;
  f.run([&](mpi::Proc& proc, rep::LogicalComm& comm) {
    intra::Runtime rt(comm, {});
    support::ComputeClient share;
    apps::AppContext ctx{proc, comm, rt, cfg, share, support::Rng(1)};
    const std::uint64_t before = g_bytes.load();
    const apps::HpccgResult r = apps::hpccg(ctx, p);
    bytes = g_bytes.load() - before;
    EXPECT_EQ(r.iterations, p.iterations);
  });
  EXPECT_GE(bytes, cg_vectors);
  EXPECT_LE(bytes, cg_vectors + slack)
      << "extra bytes over the four CG vectors: " << bytes - cg_vectors;
}

}  // namespace
}  // namespace repmpi
