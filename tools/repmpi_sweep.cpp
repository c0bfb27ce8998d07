// repmpi_sweep — crash-safe execution of the paper's scenario sweep.
//
//   repmpi_sweep [--log=F] [--jobs=N] [--nx=N] [--iters=N]
//                [--timeout-sec=N] [--max-attempts=N] [--overwrite]
//   repmpi_sweep --resume [--log=F ...]      skip cells already completed
//   repmpi_sweep --dump [--log=F]            print per-cell results (diffable)
//   repmpi_sweep --verify-log=F              fsck a result log + blob pair
//   repmpi_sweep --worker --cell=KEY --nx=N --iters=N   (internal)
//
// The sweep is the (logical procs × replication degree × failure scenario)
// HPCCG grid behind the paper's figures, treated as production traffic: each
// cell runs in its own fork/exec'd worker process under a wall-clock
// deadline, failures are retried with exponential backoff (seeded jitter
// decorrelates simultaneous retries), and every terminal result is appended
// to a crash-safe binary result log (support/result_log.hpp). Killing the
// sweep at ANY instant and rerunning with --resume completes the remaining
// cells; per-cell metrics and determinism fingerprints are bit-identical to
// an uninterrupted run (--dump output is byte-diffable across the two).
//
// --verify-log is the standalone fsck: it walks every record and the blob
// sidecar, reports per-record CRC/framing status plus the truncation point
// a recovery would use, and exits 0 clean / 3 corrupt — the chaos CI job
// runs it after every induced kill.
//
// Exit codes: 0 every cell ok · 1 internal error · 2 usage ·
//             3 partial success (some cells exhausted retries; the rest
//               ran), also --verify-log's "corruption found"
//
// Chaos knobs (all REPMPI_FAULT_*; used by tests/test_sweep_tool.cpp and
// the CI chaos job):
//   REPMPI_FAULT_KILL_CELL=KEY [KILL_ATTEMPTS=n]   worker raises SIGKILL on
//       attempts <= n (default: every attempt)
//   REPMPI_FAULT_STALL_CELL=KEY [STALL_ATTEMPTS=n] [STALL_SEC=s]  worker
//       sleeps s (default 3600) to trip the supervisor deadline
//   REPMPI_FAULT_CORRUPT_CELL=KEY [CORRUPT_ATTEMPTS=n]  worker prints
//       garbage instead of a metrics blob and exits 0
//   REPMPI_FAULT_SUPERVISOR_KILL_AFTER=k   the supervisor SIGKILLs itself
//       after appending k records — the mid-sweep crash --resume recovers
//   REPMPI_FAULT_LOG_ABORT=n   the result log dies mid-record-write after n
//       appends (torn-write recovery test; see result_log.hpp)

#include <signal.h>
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/hpccg.hpp"
#include "apps/runner.hpp"
#include "support/options.hpp"
#include "support/result_log.hpp"
#include "support/supervisor.hpp"
#include "sweep_common.hpp"

namespace repmpi::tools {
namespace {

using support::CellStatus;
using support::ResultRecord;

void print_usage() {
  std::cout
      << "usage: repmpi_sweep [--log=FILE] [--jobs=N] [--nx=N] [--iters=N]\n"
         "                    [--timeout-sec=N] [--max-attempts=N]\n"
         "                    [--overwrite | --resume]\n"
         "       repmpi_sweep --dump [--log=FILE]\n"
         "       repmpi_sweep --verify-log=FILE\n"
         "\n"
         "Runs the (logical x degree x failure) HPCCG scenario grid with\n"
         "process-isolated workers, per-cell deadlines, retry with backoff,\n"
         "and a crash-safe binary result log (default sweep_results.bin).\n"
         "--resume skips cells the log already records as ok and re-runs\n"
         "the rest; results are bit-identical to an uninterrupted run.\n"
         "--dump prints the log one diffable line per cell.\n"
         "--verify-log walks a log + blob pair and reports per-record\n"
         "CRC/framing status and the recovery truncation point.\n"
         "exit: 0 all ok, 1 internal error, 2 usage, 3 partial success /\n"
         "      verify-log corruption\n";
}

// --- Worker mode ------------------------------------------------------------

long env_long(const char* name, long def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def : std::strtol(v, nullptr, 10);
}

/// True when the env-selected fault cell matches and the current attempt is
/// within the knob's attempt budget (default: fault every attempt).
bool fault_knob_armed(const std::string& key, const char* cell_env,
                      const char* attempts_env) {
  const char* cell = std::getenv(cell_env);
  if (cell == nullptr || key != cell) return false;
  const long attempt = env_long("REPMPI_SWEEP_ATTEMPT", 1);
  return attempt <= env_long(attempts_env, LONG_MAX);
}

/// Runs one cell in-process and prints the deterministic metrics blob (one
/// JSON line) to stdout. This is what the supervisor fork/execs.
int run_worker(const support::Options& opt) {
  const std::string key = opt.get("cell");
  Cell cell;
  if (!parse_key(key, &cell)) {
    std::cerr << "repmpi_sweep: bad --cell key '" << key << "'\n";
    return 2;
  }

  if (fault_knob_armed(key, "REPMPI_FAULT_KILL_CELL",
                       "REPMPI_FAULT_KILL_ATTEMPTS"))
    ::raise(SIGKILL);
  if (fault_knob_armed(key, "REPMPI_FAULT_STALL_CELL",
                       "REPMPI_FAULT_STALL_ATTEMPTS"))
    ::sleep(static_cast<unsigned>(env_long("REPMPI_FAULT_STALL_SEC", 3600)));
  if (fault_knob_armed(key, "REPMPI_FAULT_CORRUPT_CELL",
                       "REPMPI_FAULT_CORRUPT_ATTEMPTS")) {
    std::printf("!! corrupted output, not a metrics blob !!\n");
    return 0;
  }

  const int nx = static_cast<int>(opt.get_int("nx", 8));
  const int iters = static_cast<int>(opt.get_int("iters", 4));

  fault::FaultPlan plan = crash_plan(cell, iters);

  apps::RunConfig cfg;
  cfg.mode = cell.degree == 1 ? apps::RunMode::kNative : apps::RunMode::kIntra;
  cfg.num_logical = cell.logical;
  cfg.degree = cell.degree;
  if (!plan.empty()) cfg.faults = &plan;

  apps::HpccgParams p;
  p.nx = p.ny = nx;
  p.nz = 2 * nx;
  p.iterations = iters;

  // Determinism fingerprint: the solver's numeric outcome (same probe as
  // the app crash-sweep tests). Captured from the first rank to report.
  double fingerprint = 0;
  bool captured = false;
  const apps::RunResult r = apps::run_app(cfg, [&](apps::AppContext& ctx) {
    const apps::HpccgResult hr = apps::hpccg(ctx, p);
    if (!captured) {
      fingerprint = hr.rnorm + hr.xsum;
      captured = true;
    }
  });

  // One-line JSON, full precision: every field is a virtual-time quantity,
  // bit-identical however many times (or on which attempt) the cell runs.
  std::printf(
      "{\"key\": \"%s\", \"wallclock\": %.17g, \"events\": %llu, "
      "\"messages\": %llu, \"fingerprint\": %.17g}\n",
      key.c_str(), r.wallclock, static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.net_messages), fingerprint);
  return 0;
}

// --- Dump mode --------------------------------------------------------------

int run_dump(const std::string& log_path) {
  support::ResultLogReader reader(log_path);
  std::map<std::string, ResultRecord> latest;
  ResultRecord rec;
  std::size_t n = 0;
  while (reader.next(&rec)) {
    latest[rec.key] = std::move(rec);
    ++n;
  }
  if (n == 0 && !reader.dropped_tail()) {
    std::cerr << "repmpi_sweep: no records in " << log_path << "\n";
    return 1;
  }
  dump_cells(latest);
  if (reader.dropped_tail())
    std::fprintf(stderr, "repmpi_sweep: note: log has a torn tail "
                         "(recoverable; a writer was killed mid-append)\n");
  return 0;
}

// --- Supervisor mode --------------------------------------------------------

std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

bool file_nonempty(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size > 0;
}

int run_sweep(const support::Options& opt, const char* argv0) {
  // Out-of-range values are an error, not a silent clamp (same policy as
  // repmpi_bench --jobs/--shards).
  const auto ranged = [&opt](const char* key, long def, long lo, long hi,
                             long& out) {
    out = opt.get_int(key, def);
    if (out < lo || out > hi) {
      std::cerr << "repmpi_sweep: --" << key << "=" << out
                << " out of range [" << lo << ", " << hi << "]\n";
      return false;
    }
    return true;
  };
  long jobs = 0, nx = 0, iters = 0, timeout_sec = 0, max_attempts = 0;
  if (!ranged("jobs", 2, 1, 256, jobs) || !ranged("nx", 8, 4, 512, nx) ||
      !ranged("iters", 4, 1, 64, iters) ||
      !ranged("timeout-sec", 120, 1, 86400, timeout_sec) ||
      !ranged("max-attempts", 3, 1, 99, max_attempts)) {
    return 2;
  }

  const std::string log_path = opt.get("log", "sweep_results.bin");
  const bool resume = opt.get_bool("resume", false);
  if (opt.get_bool("overwrite", false)) {
    ::unlink(log_path.c_str());
    ::unlink((log_path + ".blob").c_str());
  } else if (!resume && file_nonempty(log_path)) {
    std::cerr << "repmpi_sweep: " << log_path << " already has results; "
              << "use --resume to continue it, --overwrite to discard it, "
              << "or pick another --log path\n";
    return 2;
  }

  support::ResultLog log(log_path);
  if (log.recovered_torn_tail())
    std::cout << "[log recovery: dropped a torn trailing record]\n";

  const auto latest = log.latest_by_key();
  const std::vector<Cell> grid = make_grid();
  const std::string exe = self_exe(argv0);
  // Workers fault their replica state in 2 MiB pages instead of 4 KiB ones
  // (see worker_glibc_tunables); virtual time does not depend on it.
  const std::string tunables =
      "GLIBC_TUNABLES=" + worker_glibc_tunables(std::getenv("GLIBC_TUNABLES"));
  std::vector<support::WorkItem> items;
  std::size_t skipped = 0;
  for (const Cell& c : grid) {
    const std::string key = c.key();
    const auto it = latest.find(key);
    if (resume && it != latest.end() && it->second.status == CellStatus::kOk) {
      ++skipped;  // durably completed before the crash — never re-run
      continue;
    }
    support::WorkItem item;
    item.key = key;
    item.argv = {exe, "--worker", "--cell=" + key,
                 "--nx=" + std::to_string(nx),
                 "--iters=" + std::to_string(iters)};
    item.env = {tunables};
    item.timeout_sec = static_cast<double>(timeout_sec);
    items.push_back(std::move(item));
  }
  std::cout << "sweep: " << grid.size() << " cells, " << skipped
            << " already complete, " << items.size() << " to run on " << jobs
            << " worker process(es) (log: " << log_path << ")\n";

  const long kill_after = env_long("REPMPI_FAULT_SUPERVISOR_KILL_AFTER", -1);
  long appended = 0;

  support::SupervisorConfig cfg;
  cfg.jobs = static_cast<int>(jobs);
  cfg.max_attempts = static_cast<int>(max_attempts);
  cfg.log = &std::cout;
  // A clean exit with a blob that isn't this cell's metrics line is corrupt
  // output — retried like any other failure class.
  cfg.validate = [](const support::WorkItem& item, const std::string& out) {
    return out.rfind("{\"key\": \"" + item.key + "\"", 0) == 0 &&
           out.find("\"fingerprint\"") != std::string::npos;
  };
  cfg.on_result = [&](const support::WorkItem&, const support::WorkResult& r) {
    ResultRecord rec;
    rec.key = r.key;
    rec.status = r.status;
    rec.attempts = static_cast<std::uint32_t>(r.attempts);
    rec.code = r.code;
    // Keep the blob deterministic: the metrics line on success, empty on
    // failure (a crashed worker's partial bytes are noise, not results).
    if (r.status == CellStatus::kOk) rec.blob = r.output;
    log.append(rec);
    if (kill_after >= 0 && ++appended >= kill_after) ::raise(SIGKILL);
  };

  support::Supervisor supervisor(cfg);
  supervisor.run(items);

  // Judge the whole grid from the log (covers resumed + just-run cells).
  const auto final_state = log.latest_by_key();
  std::size_t ok = 0;
  std::vector<std::string> failed;
  for (const Cell& c : grid) {
    const auto it = final_state.find(c.key());
    if (it != final_state.end() && it->second.status == CellStatus::kOk) {
      ++ok;
    } else {
      failed.push_back(
          c.key() + " (" +
          (it == final_state.end() ? "missing"
                                   : support::to_string(it->second.status)) +
          ")");
    }
  }
  std::cout << "sweep complete: " << ok << "/" << grid.size()
            << " cells ok\n";
  if (!failed.empty()) {
    std::cout << "failed cells (sweep degraded gracefully, exit 3):\n";
    for (const std::string& f : failed) std::cout << "  " << f << "\n";
    return 3;
  }
  return 0;
}

int driver(int argc, char** argv) {
  support::Options opt(argc, argv,
                       {"jobs", "nx", "iters", "timeout-sec", "max-attempts",
                        "log", "cell", "verify-log"});
  // A mistyped flag must not fall through to a full sweep into the cwd.
  const std::set<std::string> known = {
      "jobs", "nx",     "iters",  "timeout-sec", "max-attempts", "log",
      "cell", "resume", "dump",   "verify-log",  "overwrite",    "worker",
      "help"};
  for (const std::string& key : opt.keys()) {
    if (known.count(key) == 0) {
      std::cerr << "repmpi_sweep: unknown option --" << key << "\n";
      print_usage();
      return 2;
    }
  }
  if (!opt.positional().empty()) {
    std::cerr << "repmpi_sweep: unexpected argument '"
              << opt.positional().front() << "'\n";
    print_usage();
    return 2;
  }
  for (const char* key :
       {"jobs", "nx", "iters", "timeout-sec", "max-attempts"}) {
    if (!opt.has(key)) continue;
    const std::string v = opt.get(key);
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos) {
      std::cerr << "repmpi_sweep: --" << key << " expects a number, got '"
                << (v == "true" ? "" : v) << "'\n";
      return 2;
    }
  }
  if (opt.get_bool("help", false)) {
    print_usage();
    return 0;
  }
  try {
    if (opt.get_bool("worker", false)) return run_worker(opt);
    if (opt.get_bool("dump", false))
      return run_dump(opt.get("log", "sweep_results.bin"));
    if (opt.has("verify-log")) {
      const std::string path = opt.get("verify-log");
      if (path.empty() || path == "true") {
        std::cerr << "repmpi_sweep: --verify-log needs a log path\n";
        return 2;
      }
      const support::LogVerifyReport rep =
          support::verify_result_log(path, &std::cout);
      if (!rep.exists) return 1;
      return rep.clean() ? 0 : 3;
    }
    return run_sweep(opt, argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "repmpi_sweep: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace
}  // namespace repmpi::tools

int main(int argc, char** argv) { return repmpi::tools::driver(argc, argv); }
