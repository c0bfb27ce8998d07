// Supervisor tests: fork/exec'd /bin/sh workers exercising every failure
// class (crash / timeout / nonzero exit / corrupt output), bounded retry
// with the attempt counter exported to children, kill-on-timeout, and
// graceful degradation — one bad item never takes down the queue.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "support/error.hpp"
#include "support/supervisor.hpp"

namespace repmpi::support {
namespace {

WorkItem sh(const std::string& key, const std::string& script,
            double timeout_sec = 30.0) {
  WorkItem item;
  item.key = key;
  item.argv = {"/bin/sh", "-c", script};
  item.timeout_sec = timeout_sec;
  return item;
}

/// Fast-retry config so failure tests don't sleep through real backoff.
SupervisorConfig fast_cfg(int jobs = 1, int max_attempts = 1) {
  SupervisorConfig cfg;
  cfg.jobs = jobs;
  cfg.max_attempts = max_attempts;
  cfg.backoff_base_sec = 0.01;
  cfg.backoff_cap_sec = 0.05;
  return cfg;
}

TEST(Supervisor, CleanExitCapturesOutput) {
  Supervisor sup(fast_cfg());
  const auto results = sup.run({sh("ok", "echo hello")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].key, "ok");
  EXPECT_EQ(results[0].status, CellStatus::kOk);
  EXPECT_EQ(results[0].attempts, 1);
  EXPECT_EQ(results[0].code, 0);
  EXPECT_EQ(results[0].output, "hello\n");
}

TEST(Supervisor, WorkerReapedPromptlyAfterClosingStdout) {
  // Once stdout hits EOF only the child's exit can wake the poll loop; it
  // must not wait out the loop's whole 500 ms budget before reaping.
  Supervisor sup(fast_cfg());
  const auto results =
      sup.run({sh("a", "echo hi; exec >&-; sleep 0.1"),
               sh("b", "echo hi; exec >&-; sleep 0.1")});
  ASSERT_EQ(results.size(), 2u);
  for (const WorkResult& r : results) {
    EXPECT_EQ(r.status, CellStatus::kOk) << r.key;
    EXPECT_EQ(r.output, "hi\n") << r.key;
    EXPECT_LT(r.wall_s, 0.35) << r.key;
  }
}

TEST(Supervisor, NonzeroExitClassifiedWithCode) {
  Supervisor sup(fast_cfg(1, 2));
  const auto results = sup.run({sh("bad", "exit 7")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kExit);
  EXPECT_EQ(results[0].code, 7);
  EXPECT_EQ(results[0].attempts, 2);  // retried, still failing
}

TEST(Supervisor, SignalDeathClassifiedAsCrash) {
  Supervisor sup(fast_cfg());
  const auto results = sup.run({sh("crash", "kill -9 $$")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kCrash);
  EXPECT_EQ(results[0].code, 9);
}

TEST(Supervisor, ExecFailureIsNonzeroExit127) {
  WorkItem item;
  item.key = "noexec";
  item.argv = {"/nonexistent/definitely-not-a-binary"};
  Supervisor sup(fast_cfg());
  const auto results = sup.run({item});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kExit);
  EXPECT_EQ(results[0].code, 127);
}

TEST(Supervisor, HungWorkerKilledAtDeadline) {
  const auto t0 = std::chrono::steady_clock::now();
  Supervisor sup(fast_cfg());
  const auto results = sup.run({sh("hang", "sleep 600", /*timeout_sec=*/0.3)});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kTimeout);
  // The worker must actually have been killed, not waited out.
  EXPECT_LT(elapsed, 30.0);
}

TEST(Supervisor, TimeoutKillsTheWholeWorkerTree) {
  // The worker forks a grandchild that inherits the stdout pipe. The
  // deadline kill must take down the whole process group: an orphaned
  // grandchild would hold the pipe's write end open forever (and once
  // livelocked the reaper's drain loop).
  Supervisor sup(fast_cfg());
  const auto results =
      sup.run({sh("tree", "sleep 631 & wait", /*timeout_sec=*/0.3)});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kTimeout);

  std::FILE* ps = ::popen("ps -eo args 2>/dev/null", "r");
  ASSERT_NE(ps, nullptr);
  std::string procs;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), ps)) > 0) procs.append(buf, n);
  ::pclose(ps);
  EXPECT_EQ(procs.find("sleep 631"), std::string::npos)
      << "orphaned grandchild survived the timeout kill";
}

TEST(Supervisor, ValidateRejectionClassifiedAsCorrupt) {
  SupervisorConfig cfg = fast_cfg();
  cfg.validate = [](const WorkItem&, const std::string& output) {
    return output.find("MAGIC") != std::string::npos;
  };
  Supervisor sup(cfg);
  const auto results =
      sup.run({sh("good", "echo MAGIC"), sh("garbled", "echo mangled")});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].status, CellStatus::kOk);
  EXPECT_EQ(results[1].status, CellStatus::kCorrupt);
  EXPECT_EQ(results[1].code, 0);  // the exit itself was clean
}

TEST(Supervisor, RetrySucceedsUsingExportedAttemptCounter) {
  // Fails on attempt 1, succeeds on attempt 2 — proves both the retry path
  // and that REPMPI_SWEEP_ATTEMPT reaches the child.
  Supervisor sup(fast_cfg(1, 3));
  const auto results = sup.run({sh(
      "flaky", "if [ \"$REPMPI_SWEEP_ATTEMPT\" = 1 ]; then exit 1; fi; "
               "echo recovered")});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, CellStatus::kOk);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_EQ(results[0].output, "recovered\n");
}

TEST(Supervisor, ExtraEnvReachesChild) {
  WorkItem item = sh("env", "echo \"$REPMPI_TEST_TOKEN\"");
  item.env = {"REPMPI_TEST_TOKEN=sentinel-42"};
  Supervisor sup(fast_cfg());
  const auto results = sup.run({item});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].output, "sentinel-42\n");
}

TEST(Supervisor, ItemEnvReplacesInheritedEntriesOfTheSameName) {
  // getenv() returns the first of duplicate entries, so an inherited value
  // must not survive next to the item's or the attempt counter's.
  // /usr/bin/env prints the environment exactly as the child received it.
  ::setenv("REPMPI_TEST_TOKEN", "inherited", 1);
  ::setenv("REPMPI_SWEEP_ATTEMPT", "5", 1);
  WorkItem item;
  item.key = "env";
  item.argv = {"/usr/bin/env"};
  item.env = {"REPMPI_TEST_TOKEN=from-item"};
  Supervisor sup(fast_cfg());
  const auto results = sup.run({item});
  ::unsetenv("REPMPI_TEST_TOKEN");
  ::unsetenv("REPMPI_SWEEP_ATTEMPT");
  ASSERT_EQ(results.size(), 1u);
  ASSERT_EQ(results[0].status, CellStatus::kOk);
  std::vector<std::string> seen;
  std::istringstream lines(results[0].output);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind("REPMPI_TEST_TOKEN=", 0) == 0 ||
        line.rfind("REPMPI_SWEEP_ATTEMPT=", 0) == 0)
      seen.push_back(line);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<std::string>{"REPMPI_SWEEP_ATTEMPT=1",
                                            "REPMPI_TEST_TOKEN=from-item"}));
}

TEST(Supervisor, QueueDegradesGracefullyAroundFailures) {
  // A crasher, a hang, and a nonzero exit must not disturb the other items;
  // results come back in item order regardless of completion order.
  std::vector<WorkItem> items;
  items.push_back(sh("ok0", "echo a"));
  items.push_back(sh("crash", "kill -9 $$"));
  items.push_back(sh("ok1", "echo b"));
  items.push_back(sh("hang", "sleep 600", /*timeout_sec=*/0.3));
  items.push_back(sh("bad", "exit 3"));
  items.push_back(sh("ok2", "echo c"));
  Supervisor sup(fast_cfg(/*jobs=*/3, /*max_attempts=*/1));
  const auto results = sup.run(items);
  ASSERT_EQ(results.size(), 6u);
  EXPECT_EQ(results[0].status, CellStatus::kOk);
  EXPECT_EQ(results[0].output, "a\n");
  EXPECT_EQ(results[1].status, CellStatus::kCrash);
  EXPECT_EQ(results[2].status, CellStatus::kOk);
  EXPECT_EQ(results[2].output, "b\n");
  EXPECT_EQ(results[3].status, CellStatus::kTimeout);
  EXPECT_EQ(results[4].status, CellStatus::kExit);
  EXPECT_EQ(results[4].code, 3);
  EXPECT_EQ(results[5].status, CellStatus::kOk);
  EXPECT_EQ(results[5].output, "c\n");
}

TEST(Supervisor, OnResultFiresOncePerItemWithTerminalStatus) {
  std::vector<std::string> seen;
  SupervisorConfig cfg = fast_cfg(2, 2);
  cfg.on_result = [&seen](const WorkItem& item, const WorkResult& r) {
    seen.push_back(item.key + ":" + to_string(r.status));
  };
  Supervisor sup(cfg);
  sup.run({sh("a", "echo x"), sh("b", "exit 1")});
  ASSERT_EQ(seen.size(), 2u);
  // Completion order varies; sort for a stable comparison.
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen[0], "a:ok");
  EXPECT_EQ(seen[1], "b:exit");
}

TEST(Supervisor, BackoffDoublesFromBaseAndCaps) {
  SupervisorConfig cfg;
  cfg.backoff_base_sec = 0.5;
  cfg.backoff_cap_sec = 5.0;
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 1), 0.5);
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 2), 1.0);
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 3), 2.0);
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 4), 4.0);
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 5), 5.0);   // capped
  EXPECT_DOUBLE_EQ(Supervisor::backoff_sec(cfg, 12), 5.0);  // stays capped
}

TEST(Supervisor, RetryWaitsAtLeastTheBackoffDelay) {
  SupervisorConfig cfg = fast_cfg(1, 2);
  cfg.backoff_base_sec = 0.4;
  cfg.backoff_cap_sec = 1.0;
  const auto t0 = std::chrono::steady_clock::now();
  Supervisor sup(cfg);
  const auto results = sup.run({sh("flaky", "exit 1")});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(results[0].attempts, 2);
  // The second attempt respected the (jittered) backoff.
  EXPECT_GE(elapsed, Supervisor::backoff_sec(cfg, 1, "flaky"));
}

TEST(Supervisor, DiagnosticLogMentionsRetryAndClass) {
  std::ostringstream log;
  SupervisorConfig cfg = fast_cfg(1, 2);
  cfg.log = &log;
  Supervisor sup(cfg);
  sup.run({sh("bad", "exit 5")});
  const std::string text = log.str();
  EXPECT_NE(text.find("retry"), std::string::npos);
  EXPECT_NE(text.find("exit"), std::string::npos);
  EXPECT_NE(text.find("bad"), std::string::npos);
}

TEST(Supervisor, JitteredBackoffIsReproducible) {
  SupervisorConfig cfg;
  cfg.backoff_base_sec = 0.5;
  cfg.backoff_cap_sec = 5.0;
  for (int retry = 1; retry <= 12; ++retry) {
    const double a = Supervisor::backoff_sec(cfg, retry, "hpccg.l2.d2.none");
    const double b = Supervisor::backoff_sec(cfg, retry, "hpccg.l2.d2.none");
    EXPECT_DOUBLE_EQ(a, b) << "retry " << retry;  // pure function of inputs
  }
}

TEST(Supervisor, JitteredBackoffStaysWithinHalfToFullExactDelay) {
  SupervisorConfig cfg;
  cfg.backoff_base_sec = 0.5;
  cfg.backoff_cap_sec = 5.0;
  for (int retry = 1; retry <= 12; ++retry) {
    const double exact = Supervisor::backoff_sec(cfg, retry);
    for (const char* key : {"a", "b", "hpccg.l4.d3.late_crash"}) {
      const double jittered = Supervisor::backoff_sec(cfg, retry, key);
      EXPECT_GE(jittered, 0.5 * exact) << "retry " << retry << " key " << key;
      EXPECT_LT(jittered, exact) << "retry " << retry << " key " << key;
    }
  }
}

TEST(Supervisor, JitterDecorrelatesSiblingKeys) {
  SupervisorConfig cfg;
  cfg.backoff_base_sec = 0.5;
  cfg.backoff_cap_sec = 5.0;
  // Two cells failing at the same instant retry at different times — the
  // whole point of the jitter.
  EXPECT_NE(Supervisor::backoff_sec(cfg, 3, "hpccg.l2.d2.none"),
            Supervisor::backoff_sec(cfg, 3, "hpccg.l4.d2.none"));
}

TEST(Supervisor, InvalidConfigRejected) {
  SupervisorConfig cfg;
  cfg.jobs = 0;
  EXPECT_THROW(Supervisor{cfg}, UsageError);
  cfg.jobs = 1;
  cfg.max_attempts = 0;
  EXPECT_THROW(Supervisor{cfg}, UsageError);
}

}  // namespace
}  // namespace repmpi::support
