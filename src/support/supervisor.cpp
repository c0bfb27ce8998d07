#include "support/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <ostream>
#include <string_view>

#include "support/error.hpp"
#include "support/rng.hpp"

extern char** environ;

namespace repmpi::support {
namespace {

using Clock = std::chrono::steady_clock;

/// A worker's stdout is the metrics blob; anything past this cap means the
/// worker is spewing, not reporting — kill it and classify corrupt output.
constexpr std::size_t kMaxOutputBytes = 64u << 20;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The NAME of a NAME=VALUE environment entry.
std::string_view env_name(std::string_view kv) {
  return kv.substr(0, kv.find('='));
}

/// SIGKILLs the worker's whole process group; falls back to the pid alone
/// if the group is already gone.
void kill_tree(pid_t pid) {
  if (::kill(-pid, SIGKILL) != 0) ::kill(pid, SIGKILL);
}

}  // namespace

Supervisor::Supervisor(SupervisorConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.jobs < 1)
    throw UsageError("supervisor: jobs must be >= 1");
  if (cfg_.max_attempts < 1)
    throw UsageError("supervisor: max_attempts must be >= 1");
}

Supervisor::~Supervisor() {
  for (Child& c : running_) {
    kill_tree(c.pid);
    if (c.fd >= 0) ::close(c.fd);
    if (c.pidfd >= 0) ::close(c.pidfd);
    int wait_status = 0;
    ::waitpid(c.pid, &wait_status, 0);
  }
}

double Supervisor::backoff_sec(const SupervisorConfig& cfg, int retry) {
  const double raw =
      cfg.backoff_base_sec * std::ldexp(1.0, std::max(0, retry - 1));
  return std::min(raw, cfg.backoff_cap_sec);
}

double Supervisor::backoff_sec(const SupervisorConfig& cfg, int retry,
                               const std::string& key) {
  // Deterministic decorrelation: a uniform factor in [0.5, 1.0) drawn from
  // (key, retry) under a fixed seed. Same inputs, same delay — the jitter
  // sequence is reproducible — but sibling cells failing at the same
  // instant spread out instead of hammering the host in lockstep.
  constexpr std::uint64_t kJitterSeed = 0x52455053u;
  std::uint64_t h = kJitterSeed;
  h ^= static_cast<std::uint64_t>(crc32c(key.data(), key.size())) *
       0x9e3779b97f4a7c15ULL;
  h ^= static_cast<std::uint64_t>(retry) * 0xbf58476d1ce4e5b9ULL;
  SplitMix64 mix(h);
  const double u =
      static_cast<double>(mix.next() >> 11) * 0x1.0p-53;  // [0, 1)
  return backoff_sec(cfg, retry) * (0.5 + 0.5 * u);
}

void Supervisor::finish_attempt(Child& c, CellStatus status, int code) {
  const WorkItem& item = (*items_)[c.index];
  const bool failed = status != CellStatus::kOk;
  if (failed && c.attempt < cfg_.max_attempts) {
    const double delay = backoff_sec(cfg_, c.attempt, item.key);
    if (cfg_.log)
      *cfg_.log << "[supervisor] " << item.key << " attempt " << c.attempt
                << "/" << cfg_.max_attempts << " failed ("
                << to_string(status) << ", code " << code << "), retry in "
                << delay << "s\n";
    pending_.push_back(
        {c.index, c.attempt + 1,
         Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(delay))});
    return;
  }
  WorkResult r;
  r.key = item.key;
  r.status = status;
  r.attempts = c.attempt;
  r.code = code;
  r.output = std::move(c.output);
  r.wall_s = seconds_between(c.start, Clock::now());
  if (cfg_.log)
    *cfg_.log << "[supervisor] " << item.key << ": " << to_string(status)
              << " (attempts " << r.attempts << ", code " << code << ")\n";
  if (cfg_.on_result) cfg_.on_result(item, r);
  (*results_)[c.index] = std::move(r);
}

void Supervisor::reap(Child& c, int wait_status) {
  if (c.fd >= 0) {
    // The child exited: collect what is buffered in the pipe. One pass
    // only — an orphaned grandchild could hold the write end open, and
    // looping until EOF would then never return.
    char buf[65536];
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0 &&
          c.output.size() + static_cast<std::size_t>(n) <= kMaxOutputBytes) {
        c.output.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      break;
    }
    ::close(c.fd);
    c.fd = -1;
  }
  ::close(c.pidfd);
  c.pidfd = -1;
  CellStatus status;
  int code;
  if (c.timed_out) {
    status = CellStatus::kTimeout;
    code = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;
  } else if (c.overflowed) {
    status = CellStatus::kCorrupt;
    code = 0;
  } else if (WIFSIGNALED(wait_status)) {
    status = CellStatus::kCrash;
    code = WTERMSIG(wait_status);
  } else {
    code = WEXITSTATUS(wait_status);
    const WorkItem& item = (*items_)[c.index];
    if (code != 0) {
      status = CellStatus::kExit;
    } else if (cfg_.validate && !cfg_.validate(item, c.output)) {
      status = CellStatus::kCorrupt;
    } else {
      status = CellStatus::kOk;
    }
  }
  finish_attempt(c, status, code);
}

void Supervisor::step(int max_wait_ms) {
  const auto now = Clock::now();

  // Launch every pending attempt whose backoff has elapsed, up to jobs.
  for (auto it = pending_.begin();
       it != pending_.end() &&
       running_.size() < static_cast<std::size_t>(cfg_.jobs);) {
    if (it->ready <= now) {
      const WorkItem& item = (*items_)[it->index];
      int pipefd[2];
      REPMPI_CHECK_MSG(::pipe(pipefd) == 0, "pipe() failed for " << item.key);

      // Build argv/envp before fork: only async-signal-safe calls after.
      // item.env and the attempt counter replace inherited entries of the
      // same name: getenv() returns the first match, so an appended
      // duplicate would lose to the inherited value.
      std::vector<std::string> overrides = item.env;
      overrides.push_back("REPMPI_SWEEP_ATTEMPT=" +
                          std::to_string(it->attempt));
      std::vector<std::string> env_store;
      for (char** e = environ; *e != nullptr; ++e) {
        const auto same_name = [e](const std::string& kv) {
          return env_name(kv) == env_name(*e);
        };
        if (std::none_of(overrides.begin(), overrides.end(), same_name))
          env_store.emplace_back(*e);
      }
      env_store.insert(env_store.end(), overrides.begin(), overrides.end());
      std::vector<char*> argv, envp;
      for (const std::string& a : item.argv)
        argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      for (const std::string& e : env_store)
        envp.push_back(const_cast<char*>(e.c_str()));
      envp.push_back(nullptr);

      const pid_t pid = ::fork();
      REPMPI_CHECK_MSG(pid >= 0, "fork() failed for " << item.key);
      if (pid == 0) {
        // Own process group so a timeout kill reaps the worker's whole
        // tree — a grandchild left alive would hold the stdout pipe open
        // forever.
        ::setpgid(0, 0);
        ::close(pipefd[0]);
        ::dup2(pipefd[1], STDOUT_FILENO);
        ::close(pipefd[1]);
        ::execve(argv[0], argv.data(), envp.data());
        ::_exit(127);
      }
      ::setpgid(pid, pid);  // also from the parent, to close the race
      ::close(pipefd[1]);
      ::fcntl(pipefd[0], F_SETFL, O_NONBLOCK);

      Child c;
      c.pid = pid;
      c.index = it->index;
      c.attempt = it->attempt;
      c.fd = pipefd[0];
      c.start = Clock::now();
      c.deadline =
          c.start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(item.timeout_sec));
      c.pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
      running_.push_back(std::move(c));
      REPMPI_CHECK_MSG(running_.back().pidfd >= 0,
                       "pidfd_open() failed for " << item.key);
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }

  // Wait budget: the caller's cap, the nearest child deadline, or the
  // nearest pending-retry ready time (when a slot is free for it).
  double wait_s = static_cast<double>(std::max(0, max_wait_ms)) / 1e3;
  for (const Child& c : running_)
    wait_s = std::min(wait_s, seconds_between(now, c.deadline));
  for (const Pending& p : pending_)
    if (running_.size() < static_cast<std::size_t>(cfg_.jobs))
      wait_s = std::min(wait_s, seconds_between(now, p.ready));
  const int wait_ms =
      std::max(0, static_cast<int>(std::ceil(wait_s * 1e3)));

  std::vector<struct pollfd> fds;
  std::vector<std::size_t> fd_child;
  for (std::size_t i = 0; i < running_.size(); ++i) {
    if (running_[i].fd < 0) continue;
    fds.push_back({running_[i].fd, POLLIN, 0});
    fd_child.push_back(i);
  }
  // A pidfd turns readable when its child exits, so a worker that closed
  // stdout before exiting is reaped at once rather than after the full wait.
  for (const Child& c : running_) fds.push_back({c.pidfd, POLLIN, 0});
  // With nothing running, poll() over no fds just sleeps until a retry.
  if (::poll(fds.data(), fds.size(), wait_ms) < 0 && errno != EINTR)
    throw Error("supervisor: poll() failed");

  for (std::size_t i = 0; i < fd_child.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Child& c = running_[fd_child[i]];
    // Drain whatever the pipe currently holds.
    char buf[65536];
    bool eof = false;
    for (;;) {
      const ssize_t n = ::read(c.fd, buf, sizeof(buf));
      if (n > 0) {
        if (c.output.size() + static_cast<std::size_t>(n) > kMaxOutputBytes) {
          c.overflowed = true;
          break;  // stop appending; the kill below ends the worker
        }
        c.output.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR))
        eof = true;  // EOF or broken pipe
      break;
    }
    if (eof) {
      ::close(c.fd);
      c.fd = -1;
    }
    if (c.overflowed) kill_tree(c.pid);
  }

  // Deadline enforcement, then reaping; a child killed here is collected
  // by the same waitpid pass or the next step.
  const auto after = Clock::now();
  for (Child& c : running_) {
    if (!c.timed_out && after >= c.deadline) {
      c.timed_out = true;
      kill_tree(c.pid);
    }
  }
  for (std::size_t i = 0; i < running_.size();) {
    int wait_status = 0;
    const pid_t r = ::waitpid(running_[i].pid, &wait_status, WNOHANG);
    if (r == running_[i].pid) {
      reap(running_[i], wait_status);
      running_.erase(running_.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

std::vector<WorkResult> Supervisor::run(const std::vector<WorkItem>& items) {
  std::vector<WorkResult> results(items.size());
  items_ = &items;
  results_ = &results;
  const auto now = Clock::now();
  for (std::size_t i = 0; i < items.size(); ++i)
    pending_.push_back({i, 1, now});
  while (!pending_.empty() || !running_.empty()) step(500);
  items_ = nullptr;
  results_ = nullptr;
  return results;
}

}  // namespace repmpi::support
