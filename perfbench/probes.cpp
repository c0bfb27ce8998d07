#include "probes.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

#include "apps/runner.hpp"
#include "kernels/backend.hpp"
#include "kernels/sparse.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"
#include "support/error.hpp"
#include "support/result_log.hpp"

namespace perfbench {
namespace {

using namespace repmpi;

volatile double g_sink = 0;  // keeps probe results observable

/// Median wall seconds of `reps` calls of `body`, after one untimed call.
template <typename F>
double median_s(int reps, F&& body) {
  body();
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const double t0 = mono_s();
    body();
    t.push_back(mono_s() - t0);
  }
  return median(std::move(t));
}

// --- kernels: computed bandwidth of the active backend ----------------------

Metrics kernel_probe(int nx) {
  const kernels::BackendOps& ops = kernels::active_ops();
  const auto mat = kernels::grid_matrix_cached(kernels::Stencil::k27pt, nx,
                                               nx, nx, true, true);
  REPMPI_CHECK(mat->tables != nullptr);
  const kernels::StencilTables::Table& interior = mat->tables->t[1][1][1];
  REPMPI_CHECK(interior.npts == 27);
  std::vector<double> x(mat->vector_len());
  for (std::size_t i = 0; i < x.size(); ++i)
    x[i] = 1.0 + static_cast<double>(i % 97) * 1e-3;
  // Rows whose 27 stride offsets all stay inside x.
  const auto reach = static_cast<std::int64_t>(mat->plane()) + nx + 1;
  const std::int64_t r0 = reach;
  const auto r1 = static_cast<std::int64_t>(mat->interior()) - reach;
  std::vector<double> acc(static_cast<std::size_t>(r1 - r0));
  constexpr int kCalls = 20;
  const double spmv_s = median_s(7, [&] {
    for (int i = 0; i < kCalls; ++i)
      ops.gather_table(x.data(), acc.data(), r0, r1, interior);
    g_sink = g_sink + acc[acc.size() / 2];
  });
  // Computed bytes: the arrays one call reads and writes, each once.
  const double spmv_bytes =
      8.0 * static_cast<double>(x.size() + acc.size()) * kCalls;

  const std::size_t n = mat->interior();
  std::vector<double> a(n, 1.25), b(n, 0.5), w(n);
  const double vec_s = median_s(7, [&] {
    double s = 0;
    for (int i = 0; i < kCalls; ++i) {
      ops.waxpby(0.5, a.data(), 0.25, b.data(), w.data(), n);
      s += ops.ddot(a.data(), w.data(), n);
    }
    g_sink = g_sink + s;
  });
  // waxpby reads two arrays and writes one; ddot reads two.
  const double vec_bytes = 8.0 * 5.0 * static_cast<double>(n) * kCalls;
  return {{"kernels.spmv_gbps", spmv_bytes / spmv_s / 1e9},
          {"kernels.vector_gbps", vec_bytes / vec_s / 1e9}};
}

// --- intra: one near-empty shared section -----------------------------------

double sections_s(int sections) {
  apps::RunConfig cfg;
  cfg.mode = apps::RunMode::kIntra;
  cfg.num_logical = 1;
  cfg.degree = 2;
  const double t0 = mono_s();
  apps::run_app(cfg, [sections](apps::AppContext& ctx) {
    double out[2] = {0, 0};
    for (int i = 0; i < sections; ++i) {
      intra::Section section(ctx.intra);
      const int id = ctx.intra.register_task(
          [](intra::TaskArgs& args) {
            args.scalar<double>(0) = 1.0;
            return net::ComputeCost{};
          },
          {intra::ArgSpec{intra::ArgTag::kOut, sizeof(double)}});
      // Two tasks at degree 2: one per replica, so the update path runs.
      ctx.intra.launch(id, {intra::Binding::scalar(out[0])});
      ctx.intra.launch(id, {intra::Binding::scalar(out[1])});
    }
  });
  return mono_s() - t0;
}

// --- replication / simmpi: exact-match point-to-point streams ---------------

double logical_stream_s(int msgs) {
  apps::RunConfig cfg;
  cfg.mode = apps::RunMode::kReplicated;
  cfg.num_logical = 2;
  cfg.degree = 2;
  const double t0 = mono_s();
  apps::run_app(cfg, [msgs](apps::AppContext& ctx) {
    if (ctx.rank() == 0) {
      for (int i = 0; i < msgs; ++i) ctx.comm.send_value(1, 7, i);
    } else {
      for (int i = 0; i < msgs; ++i) (void)ctx.comm.recv_value<int>(0, 7);
    }
  });
  return mono_s() - t0;
}

double mpi_stream_s(int msgs) {
  const double t0 = mono_s();
  sim::Simulator sim;
  net::Network network(sim, net::MachineModel{}, net::Topology(2, 4));
  mpi::World world(sim, network, 2);
  world.launch([msgs](mpi::Proc& proc) {
    mpi::Comm comm = mpi::Comm::world(proc);
    if (comm.rank() == 0) {
      for (int i = 0; i < msgs; ++i) comm.send_value(1, 7, i);
    } else {
      for (int i = 0; i < msgs; ++i) (void)comm.recv_value<int>(0, 7);
    }
  });
  sim.run();
  return mono_s() - t0;
}

// --- sim: raw event dispatch and fiber switches -----------------------------

double events_s(int events) {
  const double t0 = mono_s();
  sim::Simulator sim;
  for (int i = 0; i < events; ++i)
    sim.schedule_at(static_cast<double>(i) * 1e-6, [] {});
  sim.run();
  return mono_s() - t0;
}

double switches_s(int switches) {
  const double t0 = mono_s();
  sim::Simulator sim;
  // Two processes with interleaved deadlines, so every delay is a switch.
  for (int p = 0; p < 2; ++p) {
    sim.spawn(p == 0 ? "p0" : "p1", [switches](sim::Context& c) {
      for (int i = 0; i < switches / 2; ++i) c.delay(1e-9);
    });
  }
  sim.run();
  return mono_s() - t0;
}

// --- sweep: durable result-log appends --------------------------------------

double log_append_ms(const std::string& tmp_dir) {
  const std::string path = tmp_dir + "/probe_log.bin";
  ::unlink(path.c_str());
  ::unlink((path + ".blob").c_str());
  std::vector<double> ms;
  {
    support::ResultLog log(path);
    support::ResultRecord rec;
    rec.blob.assign(96, 'x');
    for (int i = 0; i < 16; ++i) {
      rec.key = "probe." + std::to_string(i);
      const double t0 = mono_s();
      log.append(rec);
      ms.push_back((mono_s() - t0) * 1e3);
    }
  }
  ::unlink(path.c_str());
  ::unlink((path + ".blob").c_str());
  return median(std::move(ms));
}

}  // namespace

Metrics calibrate() {
  Metrics m;
  std::vector<double> alu, chase;
  // 32 MB of indices forming one random cycle (Sattolo), fixed seed.
  const std::size_t n = (32u << 20) / sizeof(std::uint64_t);
  std::vector<std::uint64_t> next(n);
  std::iota(next.begin(), next.end(), std::uint64_t{0});
  std::mt19937_64 rng(0x5eedULL);
  for (std::size_t i = n - 1; i > 0; --i)
    std::swap(next[i], next[std::uniform_int_distribution<std::size_t>(
                           0, i - 1)(rng)]);
  for (int rep = 0; rep < 3; ++rep) {
    double t0 = mono_s();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 10'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    alu.push_back((mono_s() - t0) * 1e3);
    t0 = mono_s();
    std::uint64_t p = 0;
    for (int i = 0; i < 500'000; ++i) p = next[p];
    chase.push_back((mono_s() - t0) * 1e3);
    g_sink = g_sink + static_cast<double>(x ^ p);
  }
  m["alu_ms"] = median(alu);
  m["chase_ms"] = median(chase);
  return m;
}

Metrics run_probes(Tracer& tracer, const std::string& tmp_dir, int local_nx) {
  Metrics m;
  {
    ScopedSpan span(tracer, "probe.kernels");
    m.merge(kernel_probe(local_nx));
  }
  {
    ScopedSpan span(tracer, "probe.intra_section");
    constexpr int kSections = 2000;
    m["intra.section_us"] =
        (median_s(5, [] { sections_s(kSections); }) -
         median_s(5, [] { sections_s(0); })) /
        kSections * 1e6;
  }
  constexpr int kMsgs = 20000;
  double mpi_per_msg = 0;
  {
    ScopedSpan span(tracer, "probe.simmpi_match");
    mpi_per_msg = (median_s(5, [] { mpi_stream_s(kMsgs); }) -
                   median_s(5, [] { mpi_stream_s(0); })) /
                  kMsgs;
    m["simmpi.match_us"] = mpi_per_msg * 1e6;
  }
  {
    ScopedSpan span(tracer, "probe.replication_msg");
    const double logical_per_msg =
        (median_s(5, [] { logical_stream_s(kMsgs); }) -
         median_s(5, [] { logical_stream_s(0); })) /
        kMsgs;
    m["replication.msg_us"] = (logical_per_msg - mpi_per_msg) * 1e6;
  }
  {
    ScopedSpan span(tracer, "probe.sim_events");
    constexpr int kEvents = 200000;
    m["sim.event_ns"] = median_s(5, [] { events_s(kEvents); }) / kEvents * 1e9;
    m["sim.switch_ns"] =
        median_s(5, [] { switches_s(kEvents); }) / kEvents * 1e9;
  }
  {
    ScopedSpan span(tracer, "probe.result_log_append");
    m["sweep.log_append_ms"] = log_append_ms(tmp_dir);
  }
  return m;
}

}  // namespace perfbench
