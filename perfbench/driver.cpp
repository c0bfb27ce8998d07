// perfbench driver: runs one benchmark workload in this process and prints
// what it measured. perfbench/run.py builds and invokes it; see README.md.
//
//   perfbench_driver --calibrate
//   perfbench_driver --workload=W --seed=N --seconds=S [--trace=0|1]
//                    [--setup-only] [--tmp=DIR] [--trace-out=FILE]
//   perfbench_driver --reference [--tmp=DIR]
//
// stdout carries one "scenario <id> <outputs>" line per scenario result,
// holding virtual-time outputs only (run.py compares them bit for bit with
// reference.json), then one JSON line with the measurements.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/amg.hpp"
#include "apps/hpccg.hpp"
#include "apps/runner.hpp"
#include "kernels/backend.hpp"
#include "probes.hpp"
#include "sim/simulator.hpp"
#include "support/compute_cache.hpp"
#include "support/options.hpp"
#include "support/result_log.hpp"
#include "sweep_common.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace repmpi;

const double g_start = mono_s();  // workload start: process entry

std::string fmt(const char* f, ...) __attribute__((format(printf, 1, 2)));
std::string fmt(const char* f, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof(buf), f, ap);
  va_end(ap);
  return buf;
}

void emit_scenario(const std::string& id, const std::string& outputs) {
  std::printf("scenario %s %s\n", id.c_str(), outputs.c_str());
}

/// Virtual-time outputs of a run. RunResult::events is left out (it is an
/// engine-internal statistic), as is every host-side counter.
std::string virtual_outputs(const apps::RunResult& r) {
  std::string s = fmt(
      "wallclock=%.17g messages=%llu bytes=%llu finished=%d crashed=%d "
      "job_failed=%d",
      r.wallclock, static_cast<unsigned long long>(r.net_messages),
      static_cast<unsigned long long>(r.net_bytes), r.ranks_finished,
      r.ranks_crashed, r.job_failed ? 1 : 0);
  for (const auto& [phase, t] : r.phase_max)
    s += fmt(" phase.%s=%.17g", phase.c_str(), t);
  const intra::IntraStats& in = r.intra_total;
  s += fmt(" sections=%lld executed=%lld received=%lld reexecuted=%lld "
           "update_bytes=%lld",
           static_cast<long long>(in.sections),
           static_cast<long long>(in.tasks_executed),
           static_cast<long long>(in.tasks_received),
           static_cast<long long>(in.tasks_reexecuted),
           static_cast<long long>(in.update_bytes_sent));
  return s;
}

// --- Scenarios --------------------------------------------------------------

struct Scenario {
  std::string id;    ///< reference key, e.g. "hpccg.sdr"
  std::string mode;  ///< "native" / "sdr" / "intra" (apps.<mode>_ms)
  apps::RunConfig cfg;
  /// Runs the scenario; returns its virtual-time outputs.
  std::function<std::string(const apps::RunConfig&, apps::RunResult*)> run;
};

const char* mode_name(apps::RunMode m) {
  switch (m) {
    case apps::RunMode::kNative:
      return "native";
    case apps::RunMode::kReplicated:
      return "sdr";
    default:
      return "intra";
  }
}

std::string run_hpccg(const apps::RunConfig& cfg, const apps::HpccgParams& p,
                      apps::RunResult* out) {
  apps::HpccgResult hr;
  bool captured = false;
  *out = apps::run_app(cfg, [&](apps::AppContext& ctx) {
    const apps::HpccgResult r = apps::hpccg(ctx, p);
    if (!captured) {
      hr = r;
      captured = true;
    }
  });
  return virtual_outputs(*out) +
         fmt(" rnorm0=%.17g rnorm=%.17g xsum=%.17g iterations=%d", hr.rnorm0,
             hr.rnorm, hr.xsum, hr.iterations);
}

/// HPCCG CG solve under the Fig. 5 fixed-resources protocol: 16 native
/// ranks, or 8 logical ranks x degree 2 with nz doubled.
std::vector<Scenario> hpccg_kernels(std::uint64_t seed) {
  std::vector<Scenario> out;
  for (apps::RunMode mode : {apps::RunMode::kNative, apps::RunMode::kReplicated,
                             apps::RunMode::kIntra}) {
    const bool native = mode == apps::RunMode::kNative;
    Scenario s;
    s.mode = mode_name(mode);
    s.id = std::string("hpccg.") + s.mode;
    s.cfg.mode = mode;
    s.cfg.num_logical = native ? 16 : 8;
    s.cfg.seed = seed;
    apps::HpccgParams p;
    p.nx = p.ny = 32;
    p.nz = native ? 32 : 64;
    p.iterations = 6;
    p.intra_waxpby = false;  // Fig. 5b: waxpby stays classic-replicated
    s.run = [p](const apps::RunConfig& cfg, apps::RunResult* r) {
      return run_hpccg(cfg, p, r);
    };
    out.push_back(std::move(s));
  }
  return out;
}

/// AMG2013 GMRES on the 7-point stencil under the Fig. 6b protocol: 16
/// logical ranks in every mode (replicated modes use twice the processes).
std::vector<Scenario> amg_events(std::uint64_t seed) {
  std::vector<Scenario> out;
  for (apps::RunMode mode : {apps::RunMode::kNative, apps::RunMode::kReplicated,
                             apps::RunMode::kIntra}) {
    Scenario s;
    s.mode = mode_name(mode);
    s.id = std::string("amg.") + s.mode;
    s.cfg.mode = mode;
    s.cfg.num_logical = 16;
    s.cfg.seed = seed;
    apps::AmgParams p;
    p.stencil = kernels::Stencil::k7pt;
    p.solver = apps::AmgParams::Solver::kGMRES;
    p.nx = p.ny = p.nz = 16;
    p.iterations = 2;  // restarts
    p.gmres_restart = 10;
    s.run = [p](const apps::RunConfig& cfg, apps::RunResult* r) {
      apps::AmgResult ar;
      bool captured = false;
      *r = apps::run_app(cfg, [&](apps::AppContext& ctx) {
        const apps::AmgResult x = apps::amg(ctx, p);
        if (!captured) {
          ar = x;
          captured = true;
        }
      });
      return virtual_outputs(*r) +
             fmt(" rnorm0=%.17g rnorm=%.17g iterations=%d", ar.rnorm0,
                 ar.rnorm, ar.iterations);
    };
    out.push_back(std::move(s));
  }
  return out;
}

constexpr int kSweepNx = 32;
constexpr int kSweepIters = 4;  // repmpi_sweep's default --iters

/// The sweep grid run in this process, for the layer counters a sweep's
/// worker processes do not export. The crash plans mirror the worker of
/// tools/repmpi_sweep.cpp. run.py compares each replay's wallclock and
/// messages with the sweep's own result for the cell, so a drifted mirror
/// fails the correctness check and --write-reference.
std::vector<Scenario> sweep_replay() {
  std::vector<Scenario> out;
  for (const tools::Cell& cell : tools::make_grid()) {
    Scenario s;
    s.id = "replay:" + cell.key();
    s.cfg.mode =
        cell.degree == 1 ? apps::RunMode::kNative : apps::RunMode::kIntra;
    s.mode = mode_name(s.cfg.mode);
    s.cfg.num_logical = cell.logical;
    s.cfg.degree = cell.degree;
    apps::HpccgParams p;
    p.nx = p.ny = kSweepNx;
    p.nz = 2 * kSweepNx;
    p.iterations = kSweepIters;
    const std::string scenario = cell.scenario;
    const int logical = cell.logical;
    s.run = [p, scenario, logical](const apps::RunConfig& base,
                                   apps::RunResult* r) {
      fault::FaultPlan plan;
      if (scenario == "early_crash") {
        plan.add({.world_rank = logical,
                  .site = fault::CrashSite::kAfterTaskExec, .nth = 2});
      } else if (scenario == "late_crash") {
        plan.add({.world_rank = logical,
                  .site = fault::CrashSite::kBetweenArgSends,
                  .nth = 4 * kSweepIters});
      }
      apps::RunConfig cfg = base;
      if (!plan.empty()) cfg.faults = &plan;
      return run_hpccg(cfg, p, r);
    };
    out.push_back(std::move(s));
  }
  return out;
}

// --- Rounds -----------------------------------------------------------------

/// One pass over a workload's scenarios, with the host counters it moved.
struct Round {
  double wall = 0;
  double cpu = 0;
  long minflt = 0;
  int attempted = 0;
  std::map<std::string, std::vector<double>> mode_ms;  ///< host ms per call
  sim::SubstrateTotals sub;
  kernels::KernelTotals ker;
  support::ComputeCacheStats cache;
  intra::IntraStats intra;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  int crashed_ranks = 0;
  int jobs_failed = 0;
};

support::ComputeCacheStats cache_delta(support::ComputeCacheStats a,
                                       const support::ComputeCacheStats& b) {
  a.hits -= b.hits;
  a.misses -= b.misses;
  a.bypasses -= b.bypasses;
  a.evictions -= b.evictions;
  a.shared_bytes -= b.shared_bytes;
  a.uncached -= b.uncached;
  return a;
}

Round run_round(const std::vector<Scenario>& scenarios, Tracer& tracer,
                const std::string& label) {
  Round r;
  const Usage u0 = usage(RUSAGE_SELF);
  const sim::SubstrateTotals sub0 = sim::substrate_totals();
  const kernels::KernelTotals ker0 = kernels::kernel_totals();
  const support::ComputeCacheStats cache0 = support::compute_cache_totals();
  const double t0 = mono_s();
  for (const Scenario& s : scenarios) {
    apps::RunResult res;
    std::string outputs;
    const double s0 = mono_s();
    {
      ScopedSpan span(tracer, "apps.run_app." + s.mode, s.id);
      try {
        outputs = s.run(s.cfg, &res);
      } catch (const std::exception& e) {
        outputs = std::string("ERROR ") + e.what();
      }
    }
    r.mode_ms[s.mode].push_back((mono_s() - s0) * 1e3);
    emit_scenario(s.id, outputs);
    ++r.attempted;
    const intra::IntraStats& in = res.intra_total;
    r.intra.sections += in.sections;
    r.intra.tasks_executed += in.tasks_executed;
    r.intra.tasks_received += in.tasks_received;
    r.intra.tasks_reexecuted += in.tasks_reexecuted;
    r.intra.update_bytes_sent += in.update_bytes_sent;
    r.messages += res.net_messages;
    r.bytes += res.net_bytes;
    r.crashed_ranks += res.ranks_crashed;
    r.jobs_failed += res.job_failed ? 1 : 0;
  }
  r.wall = mono_s() - t0;
  ScopedSpan span(tracer, "counters.snapshot", label);
  const Usage u1 = usage(RUSAGE_SELF);
  r.cpu = u1.cpu_s() - u0.cpu_s();
  r.minflt = u1.minflt - u0.minflt;
  r.sub = sim::substrate_totals();
  r.sub -= sub0;
  r.ker = kernels::kernel_totals();
  r.ker -= ker0;
  r.cache = cache_delta(support::compute_cache_totals(), cache0);
  return r;
}

template <typename F>
double median_of(const std::vector<Round>& rounds, F&& f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(static_cast<double>(f(r)));
  return median(std::move(v));
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0; }

constexpr double kMiB = 1024.0 * 1024.0;

/// Per-layer metrics of rounds over run_app scenarios (medians per round).
void round_layers(const std::vector<Round>& rounds, Metrics& m) {
  std::map<std::string, std::vector<double>> per_mode;
  for (const Round& r : rounds)
    for (const auto& [mode, ms] : r.mode_ms)
      per_mode[mode].insert(per_mode[mode].end(), ms.begin(), ms.end());
  for (const auto& [mode, ms] : per_mode)
    m["apps." + mode + "_ms"] = median(ms);
  m["apps.warm_minflt"] =
      median_of(rounds, [](const Round& r) { return r.minflt; });

  const auto ns = [](const Round& r, kernels::KernelFamily f) {
    return static_cast<double>(r.ker.ns[static_cast<int>(f)]) * 1e-9;
  };
  m["kernels.spmv_s"] = median_of(rounds, [&](const Round& r) {
    return ns(r, kernels::KernelFamily::kSpmv);
  });
  m["kernels.vector_s"] = median_of(rounds, [&](const Round& r) {
    return ns(r, kernels::KernelFamily::kVector);
  });
  m["kernels.share"] = median_of(rounds, [&](const Round& r) {
    double all = 0;
    for (int f = 0; f < static_cast<int>(kernels::KernelFamily::kCount); ++f)
      all += ns(r, static_cast<kernels::KernelFamily>(f));
    return share(all, r.wall);
  });

  std::uint64_t hits = 0, lookups = 0;
  for (const Round& r : rounds) {
    hits += r.cache.hits;
    lookups += r.cache.hits + r.cache.misses;
  }
  m["compute_cache.hit_share"] =
      share(static_cast<double>(hits), static_cast<double>(lookups));
  m["compute_cache.uncached"] =
      median_of(rounds, [](const Round& r) { return r.cache.uncached; });
  m["compute_cache.shared_mb"] = median_of(rounds, [](const Round& r) {
    return static_cast<double>(r.cache.shared_bytes) / kMiB;
  });

  m["intra.sections"] =
      median_of(rounds, [](const Round& r) { return r.intra.sections; });
  m["intra.received_share"] = median_of(rounds, [](const Round& r) {
    return share(static_cast<double>(r.intra.tasks_received),
                 static_cast<double>(r.intra.tasks_executed +
                                     r.intra.tasks_received));
  });
  m["intra.update_mb"] = median_of(rounds, [](const Round& r) {
    return static_cast<double>(r.intra.update_bytes_sent) / kMiB;
  });
  m["intra.reexecuted"] = median_of(
      rounds, [](const Round& r) { return r.intra.tasks_reexecuted; });

  m["simmpi.messages"] =
      median_of(rounds, [](const Round& r) { return r.messages; });
  m["net.mb"] = median_of(rounds, [](const Round& r) {
    return static_cast<double>(r.bytes) / kMiB;
  });
  m["net.bytes_per_msg"] = median_of(rounds, [](const Round& r) {
    return share(static_cast<double>(r.bytes), static_cast<double>(r.messages));
  });

  m["sim.events"] =
      median_of(rounds, [](const Round& r) { return r.sub.events; });
  m["sim.fiber_switches"] =
      median_of(rounds, [](const Round& r) { return r.sub.fiber_switches; });
  m["sim.heap_bypass_share"] = median_of(rounds, [](const Round& r) {
    return share(static_cast<double>(r.sub.heap_bypass),
                 static_cast<double>(r.sub.events));
  });
  m["sim.wakeups_elided"] =
      median_of(rounds, [](const Round& r) { return r.sub.wakeups_elided; });

  m["fault.crashed_ranks"] =
      median_of(rounds, [](const Round& r) { return r.crashed_ranks; });
  m["fault.job_failed"] =
      median_of(rounds, [](const Round& r) { return r.jobs_failed; });
}

// --- Sweep ------------------------------------------------------------------

const std::string kSweepBin = REPMPI_SWEEP_BIN;

/// Spawns argv in its own process group with stdout+stderr sent to
/// `out_path`; returns the pid, or -1.
pid_t spawn(const std::vector<std::string>& argv, const std::string& out_path) {
  std::vector<char*> args;
  for (const std::string& a : argv)
    args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  posix_spawnattr_t attr;
  posix_spawnattr_init(&attr);
  posix_spawnattr_setflags(&attr, POSIX_SPAWN_SETPGROUP);
  posix_spawnattr_setpgroup(&attr, 0);
  pid_t pid = -1;
  if (posix_spawn(&pid, args[0], &fa, &attr, args.data(), environ) != 0)
    pid = -1;
  posix_spawn_file_actions_destroy(&fa);
  posix_spawnattr_destroy(&attr);
  return pid;
}

/// Waits for `pid`, killing its process group after `deadline_s`. Returns
/// the wait status, or -1 when it had to be killed.
int wait_child(pid_t pid, double deadline_s,
               const std::function<void()>& poll = {}) {
  const double t0 = mono_s();
  for (;;) {
    int status = 0;
    const pid_t w = ::waitpid(pid, &status, WNOHANG);
    if (poll) poll();
    if (w == pid) return status;
    if (mono_s() - t0 > deadline_s) {
      ::kill(-pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      return -1;
    }
    const timespec nap{0, 1'000'000};  // 1 ms
    ::nanosleep(&nap, nullptr);
  }
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<std::uint64_t>(st.st_size)
                                        : 0;
}

struct Sweep {
  double wall = 0;
  double cpu = 0;  ///< children + this process
  double sys = 0;  ///< children only
  double user = 0;  ///< children only
  long minflt = 0;  ///< children only
  double first_record_s = 0;
  std::vector<double> cell_s;  ///< completion gaps seen in the result log
  int attempted = 0;
  std::uint32_t attempts = 0;
};

constexpr double kSweepDeadlineS = 150;

/// One cold sweep: repmpi_sweep over its grid with a fresh log in `dir`.
/// Emits one scenario line per --dump line (events field removed).
Sweep run_sweep(const std::string& dir, Tracer& tracer, int index) {
  const std::string log = dir + "/sweep_log.bin";
  ::unlink(log.c_str());
  ::unlink((log + ".blob").c_str());
  Sweep s;
  const std::string sid = "sweep." + std::to_string(index);
  const Usage c0 = usage(RUSAGE_CHILDREN);
  const Usage self0 = usage(RUSAGE_SELF);
  const int span = tracer.begin("sweep.child", sid, 2);
  const double t0 = mono_s();
  const pid_t pid = spawn({kSweepBin, "--log=" + log,
                           "--nx=" + std::to_string(kSweepNx), "--jobs=1"},
                          dir + "/sweep.out");
  if (pid < 0) throw std::runtime_error("cannot spawn " + kSweepBin);
  // Cells are timed from the record file growing: a record is written only
  // once its cell is final (stdout is block-buffered when piped, so the
  // tool's own per-cell lines cannot be used for timing).
  constexpr std::uint64_t kHeaderBytes = 24;  // support/result_log.cpp
  double last = t0;
  std::size_t seen = 0;
  const auto observe = [&] {
    const std::uint64_t size = file_size(log);
    const std::size_t records =
        size < kHeaderBytes
            ? 0
            : static_cast<std::size_t>((size - kHeaderBytes) /
                                       support::ResultLog::kRecordSize);
    if (records == seen) return;
    const double now = mono_s();
    if (seen == 0) s.first_record_s = now - t0;
    for (; seen < records; ++seen) {
      tracer.add("sweep.cell", sid, last, now, 2);
      s.cell_s.push_back(now - last);
      last = now;
    }
  };
  const int status = wait_child(pid, kSweepDeadlineS, observe);
  observe();
  s.wall = mono_s() - t0;
  tracer.end(span);
  const Usage c1 = usage(RUSAGE_CHILDREN);
  const Usage self1 = usage(RUSAGE_SELF);
  s.user = c1.user_s - c0.user_s;
  s.sys = c1.sys_s - c0.sys_s;
  s.cpu = s.user + s.sys + self1.cpu_s() - self0.cpu_s();
  s.minflt = c1.minflt - c0.minflt;
  if (status != 0)
    std::fprintf(stderr, "perfbench: sweep exited with status %d\n", status);

  ScopedSpan dump_span(tracer, "sweep.dump", sid);
  const std::string dump_path = dir + "/sweep_dump.txt";
  const pid_t dump = spawn({kSweepBin, "--dump", "--log=" + log}, dump_path);
  if (dump < 0 || wait_child(dump, 30) != 0)
    throw std::runtime_error("repmpi_sweep --dump failed");
  std::ifstream in(dump_path);
  std::string line;
  const std::string events_field = "\"events\": ";
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    std::string rest = line.substr(sp + 1);
    const auto e = rest.find(events_field);
    if (e != std::string::npos) rest.erase(e, rest.find(", ", e) + 2 - e);
    emit_scenario("sweep:" + line.substr(0, sp), rest);
    ++lines;
  }
  // A cell missing from the dump is a miss too.
  s.attempted = static_cast<int>(
      std::max(lines, tools::make_grid().size()));
  for (std::size_t i = lines; i < tools::make_grid().size(); ++i)
    emit_scenario("sweep:missing", "ERROR cell not in dump");
  support::ResultLogReader reader(log);
  support::ResultRecord rec;
  while (reader.next(&rec)) s.attempts += rec.attempts;
  ::unlink(log.c_str());
  ::unlink((log + ".blob").c_str());
  return s;
}

// --- Output -----------------------------------------------------------------

void json_array(std::ostream& os, const char* key,
                const std::vector<double>& v) {
  os << "\"" << key << "\": [";
  for (std::size_t i = 0; i < v.size(); ++i)
    os << (i ? ", " : "") << fmt("%.17g", v[i]);
  os << "]";
}

void json_map(std::ostream& os, const char* key, const Metrics& m) {
  os << "\"" << key << "\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << "\"" << k << "\": " << fmt("%.17g", v);
    first = false;
  }
  os << "}";
}

void json_strings(std::ostream& os, const char* key,
                  const std::map<std::string, std::string>& m) {
  os << "\"" << key << "\": {";
  bool first = true;
  for (const auto& [k, v] : m) {
    os << (first ? "" : ", ") << "\"" << k << "\": \"" << v << "\"";
    first = false;
  }
  os << "}";
}

struct Report {
  std::vector<double> setup_samples;  ///< seconds from cold start
  std::vector<double> wall;
  std::vector<double> cpu;
  double peak_rss_mb = 0;
  int attempted = 0;
  Metrics layers;
  Metrics diag;
  std::map<std::string, std::string> labels;
  std::map<std::string, std::string> unmeasured;
};

void print_report(const Report& r) {
  std::fflush(stdout);
  std::ostringstream os;
  os << "{";
  json_array(os, "setup_samples", r.setup_samples);
  os << ", ";
  json_array(os, "wall_s", r.wall);
  os << ", ";
  json_array(os, "cpu_s", r.cpu);
  os << ", \"peak_rss_mb\": " << fmt("%.17g", r.peak_rss_mb)
     << ", \"attempted\": " << r.attempted << ", ";
  json_map(os, "layers", r.layers);
  os << ", ";
  json_map(os, "diag", r.diag);
  os << ", ";
  json_strings(os, "labels", r.labels);
  os << ", ";
  json_strings(os, "unmeasured", r.unmeasured);
  os << "}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

// --- Workload drivers -------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string tmp = ".";
  std::string trace_out;
};

constexpr int kMinRounds = 3;

/// Per-layer metrics only amg_events (sharding) or sweep_cold (the sweep's
/// own counters) can measure.
constexpr const char* kShardMetrics[] = {
    "sim.shard1_over_classic", "sim.shard2_over_classic", "sim.shard_windows",
    "sim.shard_cross_messages"};
constexpr const char* kSweepMetrics[] = {
    "sweep.cell_ms_p50", "sweep.cell_ms_max", "sweep.minflt",
    "sweep.sys_share", "sweep.attempts_per_cell"};

/// Intra scenario of amg_events on the classic engine and at 1 and 2
/// shards: host-time ratios plus the 2-shard engine's window statistics.
void shard_layers(const Scenario& intra, Tracer& tracer, Report& rep) {
  std::map<int, std::vector<double>> host;
  apps::RunResult two;
  for (int rep_i = 0; rep_i < 3; ++rep_i) {
    for (int shards : {0, 1, 2}) {
      apps::RunConfig cfg = intra.cfg;
      cfg.shards = shards;
      apps::RunResult res;
      std::string outputs;
      const double t0 = mono_s();
      {
        ScopedSpan span(tracer, "apps.run_app.shards" + std::to_string(shards),
                        intra.id);
        try {
          outputs = intra.run(cfg, &res);
        } catch (const std::exception& e) {
          outputs = std::string("ERROR ") + e.what();
        }
      }
      host[shards].push_back(mono_s() - t0);
      emit_scenario(intra.id, outputs);  // virtual time: shard-invariant
      ++rep.attempted;
      if (shards == 2) two = res;
    }
  }
  rep.layers["sim.shard1_over_classic"] = median(host[1]) / median(host[0]);
  rep.layers["sim.shard2_over_classic"] = median(host[2]) / median(host[0]);
  rep.layers["sim.shard_windows"] = static_cast<double>(two.shard_windows);
  rep.layers["sim.shard_cross_messages"] =
      static_cast<double>(two.shard_cross_messages);
}

int run_app_workload(const Args& a, const std::vector<Scenario>& scenarios,
                     int probe_nx) {
  Tracer tracer;
  tracer.set_enabled(a.trace);
  Report rep;
  const int wl_span = tracer.begin("workload." + a.workload, a.workload);
  const Round cold = run_round(scenarios, tracer, "cold");
  rep.setup_samples = {mono_s() - g_start};
  rep.attempted = cold.attempted;
  if (a.setup_only) {
    print_report(rep);
    return 0;
  }

  // Timed phase, closed loop. A traced run alternates recording rounds with
  // plain ones, so its own overhead is measured in the same process.
  std::vector<Round> traced, plain;
  const double t0 = mono_s();
  for (int i = 0; static_cast<int>(traced.size() + plain.size()) < kMinRounds ||
                  mono_s() - t0 < a.seconds;
       ++i) {
    const bool record = a.trace && i % 2 == 1;
    tracer.set_enabled(record);
    Round r = run_round(scenarios, tracer, "round." + std::to_string(i));
    rep.attempted += r.attempted;
    (record ? traced : plain).push_back(std::move(r));
  }
  tracer.set_enabled(a.trace);
  for (const Round& r : plain) {
    rep.wall.push_back(r.wall);
    rep.cpu.push_back(r.cpu);
  }
  rep.peak_rss_mb = usage(RUSAGE_SELF).maxrss_mb;

  const std::vector<Round>& counted = a.trace ? traced : plain;
  Metrics counters;
  round_layers(counted, counters);
  rep.diag["compute_cache.hit_share"] = counters["compute_cache.hit_share"];
  rep.diag["compute_cache.shared_mb"] = counters["compute_cache.shared_mb"];
  rep.diag["compute_cache.uncached"] = counters["compute_cache.uncached"];
  rep.diag["apps.warm_minflt"] = counters["apps.warm_minflt"];
  if (a.trace) {
    rep.layers = counters;
    rep.layers["apps.cold_minflt"] = static_cast<double>(cold.minflt);
    rep.layers["trace.overhead_s"] =
        median_of(traced, [](const Round& r) { return r.wall; }) -
        median_of(plain, [](const Round& r) { return r.wall; });
    if (a.workload == "amg_events") {
      shard_layers(scenarios.back(), tracer, rep);
    } else {
      for (const char* k : kShardMetrics)
        rep.unmeasured[k] = "measured on amg_events only";
    }
    rep.layers.merge(run_probes(tracer, a.tmp, probe_nx));
    for (const char* k : kSweepMetrics)
      rep.unmeasured[k] = "no sweep in this workload (see sweep_cold)";
  }
  tracer.end(wl_span);
  rep.labels["backend"] = kernels::to_string(kernels::active_backend());
  rep.diag["trace.spans"] = static_cast<double>(tracer.size());
  if (a.trace && !a.trace_out.empty() && !tracer.write_chrome(a.trace_out))
    throw std::runtime_error("cannot write " + a.trace_out);
  print_report(rep);
  return 0;
}

int run_sweep_workload(const Args& a) {
  Tracer tracer;
  tracer.set_enabled(a.trace);
  Report rep;
  const int wl_span = tracer.begin("workload." + a.workload, a.workload);
  std::vector<Sweep> traced, plain;
  const double t0 = mono_s();
  for (int i = 0; static_cast<int>(traced.size() + plain.size()) < kMinRounds ||
                  mono_s() - t0 < a.seconds;
       ++i) {
    const bool record = a.trace && i % 2 == 1;
    tracer.set_enabled(record);
    Sweep s = run_sweep(a.tmp, tracer, i);
    rep.attempted += s.attempted;
    (record ? traced : plain).push_back(std::move(s));
  }
  tracer.set_enabled(a.trace);
  for (const Sweep& s : plain) {
    rep.wall.push_back(s.wall);
    rep.cpu.push_back(s.cpu);
    rep.setup_samples.push_back(s.first_record_s);
  }
  // The largest process among the sweep's workers (and its supervisor).
  rep.peak_rss_mb = usage(RUSAGE_CHILDREN).maxrss_mb;

  if (a.trace) {
    std::vector<double> cells;
    std::vector<double> minflt, sys_share, attempts;
    for (const Sweep& s : traced) {
      for (double c : s.cell_s) cells.push_back(c * 1e3);
      minflt.push_back(static_cast<double>(s.minflt));
      sys_share.push_back(share(s.sys, s.sys + s.user));
      attempts.push_back(share(s.attempts, s.attempted));
    }
    rep.layers["sweep.cell_ms_p50"] = median(cells);
    rep.layers["sweep.cell_ms_max"] =
        cells.empty() ? 0 : *std::max_element(cells.begin(), cells.end());
    rep.layers["sweep.minflt"] = median(minflt);
    rep.layers["sweep.sys_share"] = median(sys_share);
    rep.layers["sweep.attempts_per_cell"] = median(attempts);
    std::vector<double> traced_wall;
    for (const Sweep& s : traced) traced_wall.push_back(s.wall);
    rep.layers["trace.overhead_s"] = median(traced_wall) - median(rep.wall);

    // Layer counters: the sweep's workers are separate processes that
    // export none, so the grid is replayed here, cold then warm.
    const std::vector<Scenario> replay = sweep_replay();
    const Round cold = run_round(replay, tracer, "replay.cold");
    const Round warm = run_round(replay, tracer, "replay.warm");
    rep.attempted += cold.attempted + warm.attempted;
    Metrics counters;
    round_layers({warm}, counters);
    counters.merge(rep.layers);
    rep.layers = std::move(counters);
    rep.layers["apps.cold_minflt"] = static_cast<double>(cold.minflt);
    rep.unmeasured["apps.sdr_ms"] = "the sweep grid has no SDR-MPI cell";
    rep.layers.erase("apps.sdr_ms");
    for (const char* k : kShardMetrics)
      rep.unmeasured[k] = "measured on amg_events only";
    rep.layers.merge(run_probes(tracer, a.tmp, kSweepNx));
  }
  tracer.end(wl_span);
  rep.labels["backend"] = kernels::to_string(kernels::active_backend());
  rep.diag["trace.spans"] = static_cast<double>(tracer.size());
  if (a.trace && !a.trace_out.empty() && !tracer.write_chrome(a.trace_out))
    throw std::runtime_error("cannot write " + a.trace_out);
  print_report(rep);
  return 0;
}

/// Every scenario once, for regenerating reference.json.
int run_reference(const Args& a) {
  Tracer tracer;
  Report rep;
  for (const auto& scenarios :
       {hpccg_kernels(a.seed), amg_events(a.seed), sweep_replay()})
    rep.attempted += run_round(scenarios, tracer, "reference").attempted;
  rep.attempted += run_sweep(a.tmp, tracer, 0).attempted;
  print_report(rep);
  return 0;
}

int main_impl(int argc, char** argv) {
  support::Options opt(argc, argv);
  if (opt.get_bool("calibrate", false)) {
    Report rep;
    rep.diag = calibrate();
    print_report(rep);
    return 0;
  }
  Args a;
  a.workload = opt.get("workload");
  a.seed = static_cast<std::uint64_t>(opt.get_int("seed", 1));
  a.seconds = opt.get_double("seconds", 10);
  a.trace = opt.get_int("trace", 0) != 0;
  a.setup_only = opt.get_bool("setup-only", false);
  a.tmp = opt.get("tmp", ".");
  a.trace_out = opt.get("trace-out");
  if (opt.get_bool("reference", false)) return run_reference(a);
  if (a.workload == "hpccg_kernels")
    return run_app_workload(a, hpccg_kernels(a.seed), 32);
  if (a.workload == "amg_events")
    return run_app_workload(a, amg_events(a.seed), 16);
  if (a.workload == "sweep_cold") return run_sweep_workload(a);
  std::fprintf(stderr, "perfbench_driver: unknown --workload '%s'\n",
               a.workload.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
