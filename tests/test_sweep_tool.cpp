// End-to-end tests of the repmpi_sweep binary: clean sweep, SIGKILL
// mid-sweep + --resume bit-identity, worker crash/corrupt retry, stall →
// timeout with graceful degradation, torn-log recovery, and crash cells
// matching an in-process run of the shared crash plans. These drive the
// real executable (path injected by CMake as REPMPI_SWEEP_BIN) through the
// REPMPI_FAULT_* chaos knobs — the same scenarios the CI chaos job runs.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "apps/hpccg.hpp"
#include "apps/runner.hpp"
#include "sweep_common.hpp"

#ifndef REPMPI_SWEEP_BIN
#error "REPMPI_SWEEP_BIN must be defined by the build (path to repmpi_sweep)"
#endif

namespace {

using namespace repmpi;

struct CmdResult {
  int code = -1;       // exit status; 128+sig when signal-killed
  std::string output;  // combined stdout+stderr
};

/// Runs a shell command, capturing combined output and the exit status.
CmdResult run_cmd(const std::string& cmd) {
  CmdResult result;
  std::FILE* pipe = ::popen((cmd + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0)
    result.output.append(buf, n);
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) {
    result.code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.code = 128 + WTERMSIG(status);
  }
  return result;
}

/// Small problem so the full 14-cell grid stays test-speed; identical params
/// across every test so dumps are byte-comparable.
const char kParams[] = " --jobs=2 --nx=6 --iters=2";

std::string log_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "repmpi_sweep_" + name +
                           ".bin";
  std::remove(path.c_str());
  std::remove((path + ".blob").c_str());
  return path;
}

std::string sweep_cmd(const std::string& log, const std::string& extra = "") {
  return std::string(REPMPI_SWEEP_BIN) + " --log=" + log + kParams +
         (extra.empty() ? "" : " " + extra);
}

std::string dump(const std::string& log) {
  const CmdResult r =
      run_cmd(std::string(REPMPI_SWEEP_BIN) + " --dump --log=" + log);
  EXPECT_EQ(r.code, 0) << r.output;
  return r.output;
}

std::size_t count_lines_with(const std::string& text,
                             const std::string& needle) {
  std::size_t count = 0, pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++count;
    pos += needle.size();
  }
  return count;
}

class SweepTool : public ::testing::Test {
 protected:
  // One clean reference sweep shared by every bit-identity comparison.
  static void SetUpTestSuite() {
    const std::string log = log_path("reference");
    const CmdResult r = run_cmd(sweep_cmd(log));
    ASSERT_EQ(r.code, 0) << r.output;
    clean_dump_ = new std::string(dump(log));
    ASSERT_EQ(count_lines_with(*clean_dump_, " ok "), 14u);
  }
  static void TearDownTestSuite() {
    delete clean_dump_;
    clean_dump_ = nullptr;
  }
  static const std::string* clean_dump_;
};
const std::string* SweepTool::clean_dump_ = nullptr;

TEST_F(SweepTool, CleanSweepCompletesEveryCell) {
  const std::string log = log_path("clean");
  const CmdResult r = run_cmd(sweep_cmd(log));
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("14/14 cells ok"), std::string::npos) << r.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST_F(SweepTool, RefusesToClobberAnExistingLog) {
  const std::string log = log_path("clobber");
  ASSERT_EQ(run_cmd(sweep_cmd(log)).code, 0);
  const CmdResult r = run_cmd(sweep_cmd(log));
  EXPECT_EQ(r.code, 2);
  EXPECT_NE(r.output.find("--resume"), std::string::npos) << r.output;
  // --overwrite discards and reruns cleanly.
  EXPECT_EQ(run_cmd(sweep_cmd(log, "--overwrite")).code, 0);
}

TEST_F(SweepTool, BadOptionValuesExitTwo) {
  const std::string log = log_path("usage");
  EXPECT_EQ(run_cmd(sweep_cmd(log, "--jobs=abc")).code, 2);
  EXPECT_EQ(run_cmd(sweep_cmd(log, "--jobs=0")).code, 2);
  EXPECT_EQ(run_cmd(sweep_cmd(log, "--timeout-sec=0")).code, 2);
  EXPECT_EQ(run_cmd(sweep_cmd(log, "--max-attempts=100")).code, 2);
  EXPECT_EQ(run_cmd(std::string(REPMPI_SWEEP_BIN) +
                    " --worker --cell=not.a.key")
                .code,
            2);
  // Unknown flags (a removed option, a typo) and stray arguments are usage
  // errors, never a silent full sweep that writes a log into the cwd.
  for (const char* flag : {"--list-cells", "--jbos=2", "stray"}) {
    const CmdResult r = run_cmd(sweep_cmd(log, flag));
    EXPECT_EQ(r.code, 2) << flag << "\n" << r.output;
    EXPECT_NE(r.output.find("usage: repmpi_sweep"), std::string::npos)
        << r.output;
  }
  EXPECT_FALSE(std::ifstream(log).good()) << "a rejected run wrote " << log;
}

TEST_F(SweepTool, SigkillMidSweepThenResumeIsBitIdentical) {
  // The supervisor SIGKILLs itself after durably logging 4 cells — the
  // ISSUE's headline acceptance test. --resume must skip exactly those
  // cells and produce a dump byte-identical to the uninterrupted run.
  const std::string log = log_path("killresume");
  const CmdResult killed = run_cmd(
      "REPMPI_FAULT_SUPERVISOR_KILL_AFTER=4 " + sweep_cmd(log));
  EXPECT_EQ(killed.code, 128 + SIGKILL) << killed.output;

  const CmdResult resumed = run_cmd(sweep_cmd(log, "--resume"));
  EXPECT_EQ(resumed.code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("4 already complete, 10 to run"),
            std::string::npos)
      << resumed.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST_F(SweepTool, WorkerCrashIsRetriedAndStaysBitIdentical) {
  // One cell's worker SIGKILLs itself on attempt 1 only; the retry must
  // succeed and the final metrics must not depend on the attempt number.
  const std::string log = log_path("workerkill");
  const CmdResult r = run_cmd(
      "REPMPI_FAULT_KILL_CELL=hpccg.l2.d2.none REPMPI_FAULT_KILL_ATTEMPTS=1 " +
      sweep_cmd(log));
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("crash"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("retry"), std::string::npos) << r.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST_F(SweepTool, ExportedAttemptCounterDoesNotMaskAKillKnob) {
  // A REPMPI_SWEEP_ATTEMPT left in the caller's environment must not shadow
  // the supervisor's own counter: attempt 1 still crashes as the knob says.
  const std::string log = log_path("exportedattempt");
  const CmdResult r = run_cmd(
      "REPMPI_SWEEP_ATTEMPT=5 REPMPI_FAULT_KILL_CELL=hpccg.l2.d1.none "
      "REPMPI_FAULT_KILL_ATTEMPTS=1 " +
      sweep_cmd(log));
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("hpccg.l2.d1.none attempt 1/3 failed (crash"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("hpccg.l2.d1.none: ok (attempts 2"),
            std::string::npos)
      << r.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST_F(SweepTool, MallocPolicyDoesNotChangeResults) {
  // Workers default to huge-page malloc; opting out must give the same
  // bytes, since only host memory layout differs.
  const std::string log = log_path("nohugetlb");
  const CmdResult r =
      run_cmd("GLIBC_TUNABLES=glibc.malloc.hugetlb=0 " + sweep_cmd(log));
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST(SweepWorkerTunables, AddsTheHugePagePolicyOnce) {
  EXPECT_EQ(tools::worker_glibc_tunables(nullptr), "glibc.malloc.hugetlb=1");
  EXPECT_EQ(tools::worker_glibc_tunables(""), "glibc.malloc.hugetlb=1");
  EXPECT_EQ(tools::worker_glibc_tunables("glibc.malloc.arena_max=2"),
            "glibc.malloc.arena_max=2:glibc.malloc.hugetlb=1");
  EXPECT_EQ(tools::worker_glibc_tunables(
                "glibc.malloc.arena_max=2:glibc.malloc.tcache_count=0"),
            "glibc.malloc.arena_max=2:glibc.malloc.tcache_count=0:"
            "glibc.malloc.hugetlb=1");
}

TEST(SweepWorkerTunables, KeepsTheCallersOwnHugePageSetting) {
  for (const char* own :
       {"glibc.malloc.hugetlb=0", "glibc.malloc.hugetlb=2",
        "glibc.malloc.arena_max=2:glibc.malloc.hugetlb=0",
        "glibc.malloc.hugetlb=2:glibc.malloc.arena_max=2"})
    EXPECT_EQ(tools::worker_glibc_tunables(own), own);
  // A tunable whose name only ends in the policy's name is another one.
  EXPECT_EQ(tools::worker_glibc_tunables("x.glibc.malloc.hugetlb=0"),
            "x.glibc.malloc.hugetlb=0:glibc.malloc.hugetlb=1");
}

TEST(SweepWorkerTunables, ReMergeIsIdempotent) {
  for (const char* inherited :
       {static_cast<const char*>(nullptr), "glibc.malloc.arena_max=2",
        "glibc.malloc.hugetlb=0"}) {
    const std::string once = tools::worker_glibc_tunables(inherited);
    EXPECT_EQ(tools::worker_glibc_tunables(once.c_str()), once);
  }
}

TEST_F(SweepTool, CorruptOutputIsRetriedAndStaysBitIdentical) {
  const std::string log = log_path("corrupt");
  const CmdResult r = run_cmd(
      "REPMPI_FAULT_CORRUPT_CELL=hpccg.l4.d3.late_crash "
      "REPMPI_FAULT_CORRUPT_ATTEMPTS=1 " +
      sweep_cmd(log));
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("corrupt"), std::string::npos) << r.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

TEST_F(SweepTool, StalledCellTimesOutWhileSweepDegradesGracefully) {
  // One cell hangs on every attempt; with a 1s deadline it exhausts its
  // retries and is reported failed=timeout, the other 13 cells complete,
  // and the sweep exits with the distinct partial-success code 3.
  const std::string log = log_path("stall");
  const CmdResult r = run_cmd(
      "REPMPI_FAULT_STALL_CELL=hpccg.l2.d3.none " +
      sweep_cmd(log, "--timeout-sec=1 --max-attempts=2"));
  EXPECT_EQ(r.code, 3) << r.output;
  EXPECT_NE(r.output.find("13/14 cells ok"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("degraded gracefully"), std::string::npos)
      << r.output;

  const std::string d = dump(log);
  EXPECT_NE(d.find("hpccg.l2.d3.none failed=timeout"), std::string::npos)
      << d;
  EXPECT_EQ(count_lines_with(d, " ok "), 13u);
}

TEST(SweepWorker, CrashCellsMatchAnInProcessRunOfTheSharedCrashPlan) {
  // Every early_crash / late_crash cell: the worker's metrics blob must be
  // what an in-process run of the same cell under tools::crash_plan
  // produces. The sweep bench builds its crash cells from crash_plan too,
  // so this pins the tool and the bench to one scenario definition.
  constexpr int kNx = 6, kIters = 2;  // kParams' problem
  for (const tools::Cell& cell : tools::make_grid()) {
    if (cell.scenario == "none") continue;
    SCOPED_TRACE(cell.key());
    const CmdResult worker = run_cmd(
        std::string(REPMPI_SWEEP_BIN) + " --worker --cell=" + cell.key() +
        " --nx=" + std::to_string(kNx) + " --iters=" + std::to_string(kIters));
    ASSERT_EQ(worker.code, 0) << worker.output;

    fault::FaultPlan plan = tools::crash_plan(cell, kIters);
    ASSERT_FALSE(plan.empty());
    apps::RunConfig cfg;
    cfg.mode = apps::RunMode::kIntra;
    cfg.num_logical = cell.logical;
    cfg.degree = cell.degree;
    cfg.faults = &plan;
    apps::HpccgParams p;
    p.nx = p.ny = kNx;
    p.nz = 2 * kNx;
    p.iterations = kIters;
    double fingerprint = 0;
    bool captured = false;
    const apps::RunResult r = apps::run_app(cfg, [&](apps::AppContext& ctx) {
      const apps::HpccgResult hr = apps::hpccg(ctx, p);
      if (!captured) {
        fingerprint = hr.rnorm + hr.xsum;
        captured = true;
      }
    });
    EXPECT_EQ(r.ranks_crashed, 1);  // the plan really killed the replica

    EXPECT_EQ(tools::blob_number(worker.output, "wallclock"), r.wallclock);
    EXPECT_EQ(tools::blob_number(worker.output, "messages"),
              static_cast<double>(r.net_messages));
    EXPECT_EQ(tools::blob_number(worker.output, "fingerprint"), fingerprint);
  }
}

TEST_F(SweepTool, VerifyLogCleanCorruptAndMissingExitCodes) {
  // The standalone fsck the chaos CI job runs after every induced kill:
  // exit 0 on a clean log, 3 when corruption was found, 1 when the log
  // cannot be opened at all.
  const std::string log = log_path("verify");
  ASSERT_EQ(run_cmd(sweep_cmd(log)).code, 0);

  const std::string verify_cmd =
      std::string(REPMPI_SWEEP_BIN) + " --verify-log=" + log;
  CmdResult r = run_cmd(verify_cmd);
  EXPECT_EQ(r.code, 0) << r.output;
  EXPECT_NE(r.output.find("verify-log: clean"), std::string::npos)
      << r.output;
  EXPECT_EQ(count_lines_with(r.output, ": ok key="), 14u) << r.output;

  // Tear the tail the way a SIGKILL'd writer would.
  std::FILE* f = std::fopen(log.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const std::string junk(48, 'X');
  std::fwrite(junk.data(), 1, junk.size(), f);
  std::fclose(f);
  r = run_cmd(verify_cmd);
  EXPECT_EQ(r.code, 3) << r.output;
  EXPECT_NE(r.output.find("verify-log: CORRUPT"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("torn trailing record"), std::string::npos)
      << r.output;

  EXPECT_EQ(run_cmd(std::string(REPMPI_SWEEP_BIN) +
                    " --verify-log=/nonexistent/no.bin")
                .code,
            1);
}

TEST_F(SweepTool, TornLogWriteIsRecoveredOnResume) {
  // The log writer dies halfway through its 3rd record append (torn write).
  // Resume must drop the torn tail, re-run that cell and the rest, and end
  // bit-identical to the clean run.
  const std::string log = log_path("tornlog");
  const CmdResult torn =
      run_cmd("REPMPI_FAULT_LOG_ABORT=3 " + sweep_cmd(log));
  EXPECT_EQ(torn.code, 43) << torn.output;  // the injected abort's exit code

  const CmdResult resumed = run_cmd(sweep_cmd(log, "--resume"));
  EXPECT_EQ(resumed.code, 0) << resumed.output;
  EXPECT_NE(resumed.output.find("log recovery"), std::string::npos)
      << resumed.output;
  EXPECT_EQ(dump(log), *clean_dump_);
}

}  // namespace
