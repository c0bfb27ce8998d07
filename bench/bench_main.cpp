// Unified bench driver.
//
//   repmpi_bench --list                 enumerate registered benches
//   repmpi_bench fig5a [--procs=16 ..]  run selected benches by name
//   repmpi_bench --all [--json f.json]  run everything, emit a JSON report
//   repmpi_bench --all --smoke          scaled-down profile (CI-sized)
//   repmpi_bench --all --jobs=8         run benches concurrently on 8 threads
//
// Benches are independent simulations, so with --jobs N (default: the
// hardware concurrency) the driver fans them across a support::TaskPool.
// Each bench runs entirely on one worker thread — the confinement contract
// the substrate's thread-local state requires — and writes its text output
// to a per-bench buffer that is printed as one intact block on completion.
// Virtual-time results are bit-identical to a serial run regardless of the
// thread count; only wall-clock changes. The JSON report lists benches in
// registry order no matter which order they finished in.
//
// The JSON report (schema "repmpi-bench-report/1") carries one entry per
// bench: exit status, wall time and event/message counts (wall_ms /
// events / messages / events_per_sec / messages_per_sec, the counts from
// the thread-local simulator totals), and the headline metrics the bench
// recorded through BenchContext::metric. Virtual-time metrics are
// deterministic and gated against the committed baseline
// (tools/check_bench_drift.py); the wall-time fields and any metric
// prefixed "host_" are host-dependent and never gated. Host performance
// per layer is measured by perfbench/, not here.

#include <pthread.h>
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "kernels/backend.hpp"
#include "registry.hpp"
#include "sim/simulator.hpp"
#include "support/options.hpp"
#include "support/task_pool.hpp"

namespace repmpi::bench {
namespace {

struct BenchOutcome {
  std::string name;
  int status = 0;
  double wall_time_s = 0;
  std::uint64_t events = 0;    ///< DES events executed during the bench
  std::uint64_t messages = 0;  ///< simulated messages transferred
  std::vector<std::pair<std::string, double>> metrics;
  std::string error;
  std::string output;  ///< the bench's buffered text output
};

void print_usage() {
  std::cout
      << "usage: repmpi_bench --list\n"
         "       repmpi_bench <name>... [--key=value ...]\n"
         "       repmpi_bench --all [--json <file>] [--key=value ...]\n"
         "\n"
         "Runs the paper-reproduction benches (figures and ablations of\n"
         "Ropars et al., IPDPS'15). --key=value options are forwarded to\n"
         "every selected bench; --json writes a machine-readable report.\n"
         "--smoke installs scaled-down problem-size defaults (explicit\n"
         "--key=value options still win) so the full suite finishes in CI\n"
         "time; results keep the paper's qualitative ordering but not its\n"
         "absolute efficiencies.\n"
         "--jobs=N (or --jobs N) runs the selected benches concurrently on\n"
         "N threads (default: hardware concurrency; virtual-time results\n"
         "are bit-identical to --jobs=1, only wall-clock changes).\n"
         "--shards=N splits each simulation in the benches that support\n"
         "it (the fig6 panels) across N simulator shards synchronized by\n"
         "conservative time windows; virtual-time results are\n"
         "bit-identical at any shard count, and sharded runs report\n"
         "host_shard_count/windows/cross_messages.\n"
         "--backend={auto,scalar,avx2} selects the host kernel\n"
         "backend for the batch kernels (SpMV, stencil, PIC, vector ops).\n"
         "auto (default) picks avx2 where the CPU has it. Virtual-time\n"
         "results are bit-identical under every backend; only host wall\n"
         "time changes. Requesting a backend this build or CPU lacks is\n"
         "an error (exit 2), never a silent fallback. The report records\n"
         "the resolved backend as host_backend.\n"
         "--timeout-sec=N fails any bench exceeding N seconds of wall\n"
         "time: the hung bench becomes a failed report entry and the\n"
         "driver exits 124 after flushing a partial report.\n"
         "On SIGINT/SIGTERM the driver flushes completed benches as a\n"
         "valid partial JSON report (\"partial\": true) and exits 128+sig.\n"
         "exit: 0 all ok, 1 bench failure, 2 usage, 124 timeout,\n"
         "128+sig interrupted\n";
}

/// Scaled-down defaults for --smoke: every size knob the benches read,
/// shrunk so `--all --smoke` finishes in seconds. User-provided options
/// override these (Options::set_default).
void apply_smoke_profile(support::Options& opt) {
  static constexpr std::pair<const char*, const char*> kProfile[] = {
      {"procs", "8"},     {"nx", "16"},       {"ny", "16"},
      {"nz", "16"},       {"iters", "2"},     {"reps", "1"},
      {"restarts", "1"},  {"particles", "8000"}, {"steps", "2"},
      {"sections", "4"},  {"n", "16384"},
  };
  for (const auto& [key, value] : kProfile) opt.set_default(key, value);
}

void print_list() {
  std::cout << "registered benches:\n";
  for (const BenchInfo* b : BenchRegistry::instance().list()) {
    std::cout << "  " << b->name;
    for (std::size_t i = b->name.size(); i < 24; ++i) std::cout << ' ';
    std::cout << b->title << "\n";
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  // JSON has no inf/nan; clamp to null-safe strings.
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

/// Writes the JSON report. `partial` marks a report flushed before the run
/// finished (signal or --timeout-sec): still valid JSON, still the same
/// per-bench schema, but flagged so downstream tooling (the drift gate)
/// knows missing benches are expected rather than a regression.
bool write_report(const std::string& path,
                  const std::vector<BenchOutcome>& outcomes,
                  bool partial = false) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "repmpi_bench: cannot open " << path << " for writing\n";
    return false;
  }
  out << "{\n  \"schema\": \"repmpi-bench-report/1\",\n  \"partial\": "
      << (partial ? "true" : "false") << ",\n  \"host_backend\": \""
      << kernels::to_string(kernels::active_backend())
      << "\",\n  \"benches\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const BenchOutcome& o = outcomes[i];
    const double wall = o.wall_time_s > 0 ? o.wall_time_s : 1e-9;
    out << "    {\n      \"name\": \"" << json_escape(o.name) << "\",\n"
        << "      \"status\": " << o.status << ",\n"
        << "      \"wall_time_s\": " << json_number(o.wall_time_s) << ",\n"
        << "      \"wall_ms\": " << json_number(o.wall_time_s * 1e3) << ",\n"
        << "      \"events\": " << o.events << ",\n"
        << "      \"messages\": " << o.messages << ",\n"
        << "      \"events_per_sec\": "
        << json_number(static_cast<double>(o.events) / wall) << ",\n"
        << "      \"messages_per_sec\": "
        << json_number(static_cast<double>(o.messages) / wall);
    if (!o.error.empty())
      out << ",\n      \"error\": \"" << json_escape(o.error) << "\"";
    out << ",\n      \"metrics\": {";
    for (std::size_t m = 0; m < o.metrics.size(); ++m) {
      if (m) out << ", ";
      out << "\"" << json_escape(o.metrics[m].first)
          << "\": " << json_number(o.metrics[m].second);
    }
    out << "}\n    }" << (i + 1 < outcomes.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  out.flush();
  if (!out.good()) {
    std::cerr << "repmpi_bench: failed writing " << path << "\n";
    return false;
  }
  std::cout << "\nwrote JSON report: " << path << "\n";
  return true;
}

/// Runs one bench to completion on the calling thread. The thread-local
/// substrate totals make the before/after delta exact even when other
/// benches run concurrently on sibling worker threads.
BenchOutcome run_one(const BenchInfo& info, const support::Options& opt) {
  BenchOutcome o;
  o.name = info.name;
  BenchContext ctx(opt);
  const sim::SubstrateTotals before = sim::substrate_totals();
  const auto start = std::chrono::steady_clock::now();
  try {
    o.status = info.fn(ctx);
  } catch (const std::exception& e) {
    o.status = 1;
    o.error = e.what();
  }
  const auto end = std::chrono::steady_clock::now();
  const sim::SubstrateTotals after = sim::substrate_totals();
  o.wall_time_s = std::chrono::duration<double>(end - start).count();
  o.events = after.events - before.events;
  o.messages = after.messages - before.messages;
  o.metrics = ctx.metrics();
  o.output = ctx.output();
  return o;
}

int driver(int argc, char** argv) {
  // "--jobs N" / "--shards N" / "--timeout-sec N" work in addition to the =
  // forms. Only these are value keys: making `json` one would change the
  // meaning of existing "--json <bench>" invocations (the positional .json
  // fallback below already covers "--json file.json").
  support::Options opt(argc, argv,
                       {"jobs", "shards", "timeout-sec", "backend"});
  for (const char* key : {"jobs", "shards", "timeout-sec"}) {
    if (!opt.has(key)) continue;
    const std::string v = opt.get(key);
    // A bare flag parses as "true"; reject it like any non-number instead
    // of silently running with a default.
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
      std::cerr << "repmpi_bench: --" << key << " expects a number, got '"
                << (v == "true" ? "" : v) << "'\n";
      return 2;
    }
  }
  // --backend resolves before anything runs: an unknown name or a backend
  // this build/CPU can't execute is a usage error, never a silent fallback
  // (a report silently produced on the wrong backend would corrupt a perf
  // comparison without any visible sign).
  if (opt.has("backend")) {
    const std::string v = opt.get("backend");
    kernels::Backend requested;
    if (v == "true" || v.empty() ||
        !kernels::backend_from_string(v, &requested)) {
      std::cerr << "repmpi_bench: --backend expects one of auto, scalar, "
                   "avx2; got '"
                << (v == "true" ? "" : v) << "'\n";
      return 2;
    }
    if (!kernels::backend_supported(requested)) {
      std::cerr << "repmpi_bench: --backend=" << v << " is "
                << (kernels::backend_compiled(requested)
                        ? "not supported by this CPU"
                        : "not compiled into this build")
                << " (best supported: "
                << kernels::to_string(kernels::detect_backend()) << ")\n";
      return 2;
    }
    kernels::set_active_backend(requested);
  }
  if (opt.get_bool("help", false)) {
    print_usage();
    return 0;
  }
  if (opt.get_bool("list", false)) {
    print_list();
    return 0;
  }
  if (opt.get_bool("smoke", false)) {
    apply_smoke_profile(opt);
    std::cout << "[smoke profile: scaled-down problem sizes]\n";
  }

  // --json=FILE or "--json FILE" (the bare-flag form leaves FILE positional
  // and the .json-suffix scan below picks it up); a bare --json defaults to
  // bench_report.json.
  std::string json_path;
  if (opt.has("json"))
    json_path = opt.get("json") == "true" ? "bench_report.json"
                                          : opt.get("json");
  std::vector<std::string> names;
  for (const std::string& arg : opt.positional()) {
    if (arg.size() > 5 && arg.ends_with(".json") && !json_path.empty()) {
      json_path = arg;
    } else {
      names.push_back(arg);
    }
  }

  std::vector<const BenchInfo*> selected;
  if (opt.get_bool("all", false)) {
    if (!names.empty()) {
      std::cerr << "repmpi_bench: --all cannot be combined with bench names "
                   "('" << names.front() << "')\n";
      return 2;
    }
    selected = BenchRegistry::instance().list();
  } else {
    for (const std::string& name : names) {
      const BenchInfo* info = BenchRegistry::instance().find(name);
      if (info == nullptr) {
        std::cerr << "repmpi_bench: unknown bench '" << name
                  << "' (try --list)\n";
        return 2;
      }
      selected.push_back(info);
    }
  }
  if (selected.empty()) {
    print_usage();
    return 2;
  }

  // Out-of-range values are an error, not a silent clamp: "--jobs=0" or
  // "--shards=1000" almost certainly means a typo or a misremembered unit,
  // and quietly running with something else buries the mistake in a report
  // that looks healthy.
  const auto ranged = [&opt](const char* key, long def, long lo, long hi,
                             long& out) {
    out = opt.get_int(key, def);
    if (out < lo || out > hi) {
      std::cerr << "repmpi_bench: --" << key << "=" << out
                << " out of range [" << lo << ", " << hi << "]\n";
      return false;
    }
    return true;
  };
  long jobs_opt = 0, shards_opt = 0, timeout_opt = 0;
  if (!ranged("jobs", support::TaskPool::default_jobs(), 1, 256, jobs_opt) ||
      (opt.has("shards") && !ranged("shards", 1, 1, 64, shards_opt)) ||
      (opt.has("timeout-sec") &&
       !ranged("timeout-sec", 0, 1, 86400, timeout_opt))) {
    return 2;
  }

  // Scenario-level parallelism: benches are independent simulations, so fan
  // them across a worker pool. Outcomes land in `outcomes[i]` for selection
  // index i, so the JSON report keeps registry order regardless of which
  // bench finished first.
  const unsigned jobs = static_cast<unsigned>(jobs_opt);
  const unsigned workers = std::min<unsigned>(
      jobs, static_cast<unsigned>(selected.size()));
  if (workers > 1)
    std::cout << "[running " << selected.size() << " benches on " << workers
              << " threads]\n";

  std::vector<BenchOutcome> outcomes(selected.size());
  std::mutex print_mu;

  // Crash-robust reporting. SIGINT/SIGTERM are blocked in every thread and
  // claimed by a watcher via sigtimedwait: on a signal the watcher flushes
  // the benches completed so far as a *valid* partial JSON report
  // ("partial": true) and exits 128+sig, so an interrupted CI job still
  // leaves a parseable artifact instead of a truncated file. The same
  // watcher enforces --timeout-sec: a bench past its per-bench wall
  // deadline is reported as a failed entry (status 124) in a partial
  // report and the driver exits 124 — a hung simulation costs its cell,
  // not the whole report.
  sigset_t watch_set;
  sigemptyset(&watch_set);
  sigaddset(&watch_set, SIGINT);
  sigaddset(&watch_set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &watch_set, nullptr);

  using BenchClock = std::chrono::steady_clock;
  std::mutex state_mu;  // guards started/completed/starts and outcomes[i]
  std::vector<bool> started(selected.size()), completed(selected.size());
  std::vector<BenchClock::time_point> starts(selected.size());
  std::atomic<bool> all_done{false};

  // Flushes completed benches (plus, on timeout, failed entries for the
  // expired ones) while workers may still be running — only slots whose
  // `completed` flag is set are safe to read.
  const auto flush_partial = [&](const std::vector<std::size_t>& hung) {
    std::vector<BenchOutcome> partial;
    std::lock_guard<std::mutex> lk(state_mu);
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      if (completed[i]) {
        partial.push_back(outcomes[i]);
      } else if (std::find(hung.begin(), hung.end(), i) != hung.end()) {
        BenchOutcome o;
        o.name = selected[i]->name;
        o.status = 124;
        o.error = "exceeded --timeout-sec=" + std::to_string(timeout_opt) +
                  " wall deadline";
        o.wall_time_s =
            std::chrono::duration<double>(BenchClock::now() - starts[i])
                .count();
        partial.push_back(std::move(o));
      }
    }
    if (!json_path.empty()) write_report(json_path, partial, /*partial=*/true);
    return partial.size();
  };

  std::thread watcher([&] {
    const struct timespec tick{0, 100 * 1000 * 1000};  // 100ms poll
    for (;;) {
      const int sig = ::sigtimedwait(&watch_set, nullptr, &tick);
      if (sig == SIGINT || sig == SIGTERM) {
        std::lock_guard<std::mutex> lk(print_mu);
        const std::size_t n = flush_partial({});
        std::cerr << "\nrepmpi_bench: interrupted by "
                  << (sig == SIGINT ? "SIGINT" : "SIGTERM") << " — flushed "
                  << n << "/" << outcomes.size()
                  << " completed benches as a partial report\n";
        std::_Exit(128 + sig);
      }
      if (all_done.load(std::memory_order_acquire)) return;
      if (timeout_opt <= 0) continue;
      std::vector<std::size_t> hung;
      {
        std::lock_guard<std::mutex> lk(state_mu);
        const auto now = BenchClock::now();
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
          if (started[i] && !completed[i] &&
              now - starts[i] > std::chrono::seconds(timeout_opt))
            hung.push_back(i);
        }
      }
      if (!hung.empty()) {
        std::lock_guard<std::mutex> lk(print_mu);
        for (const std::size_t i : hung)
          std::cerr << "repmpi_bench: bench '" << selected[i]->name
                    << "' exceeded --timeout-sec=" << timeout_opt
                    << " — reporting it failed\n";
        flush_partial(hung);
        std::_Exit(124);
      }
    }
  });

  {
    support::TaskPool pool(workers);
    for (std::size_t i = 0; i < selected.size(); ++i) {
      pool.submit([&, i] {
        {
          std::lock_guard<std::mutex> lk(state_mu);
          started[i] = true;
          starts[i] = BenchClock::now();
        }
        BenchOutcome o = run_one(*selected[i], opt);
        {
          // One intact block per bench, in completion order.
          std::lock_guard<std::mutex> lk(print_mu);
          std::cout << o.output << std::flush;
          if (!o.error.empty())
            std::cerr << "bench " << o.name << " failed: " << o.error << "\n";
        }
        std::lock_guard<std::mutex> lk(state_mu);
        outcomes[i] = std::move(o);
        completed[i] = true;
      });
    }
    pool.wait();
  }
  all_done.store(true, std::memory_order_release);
  watcher.join();
  pthread_sigmask(SIG_UNBLOCK, &watch_set, nullptr);

  int failures = 0;
  for (const BenchOutcome& o : outcomes)
    if (o.status != 0) ++failures;

  if (!json_path.empty() && !write_report(json_path, outcomes)) ++failures;

  if (selected.size() > 1) {
    std::cout << "\nran " << outcomes.size() << " benches, " << failures
              << " failed\n";
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace repmpi::bench

int main(int argc, char** argv) { return repmpi::bench::driver(argc, argv); }
