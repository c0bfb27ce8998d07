#include "fault/failure.hpp"

#include "support/error.hpp"

namespace repmpi::fault {

const char* to_string(CrashSite site) {
  switch (site) {
    case CrashSite::kOutsideSection:
      return "outside_section";
    case CrashSite::kSectionEntry:
      return "section_entry";
    case CrashSite::kBeforeTaskExec:
      return "before_task_exec";
    case CrashSite::kAfterTaskExec:
      return "after_task_exec";
    case CrashSite::kBetweenArgSends:
      return "between_arg_sends";
    case CrashSite::kSectionExit:
      return "section_exit";
  }
  return "?";
}

void FaultPlan::validate(int num_ranks) const {
  auto bad = [](const std::string& what) {
    throw support::UsageError("invalid fault plan: " + what);
  };
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    const CrashRule& r = rules_[i];
    std::ostringstream os;
    os << "CrashRule #" << i << " (rank=" << r.world_rank
       << ", site=" << to_string(r.site) << ", nth=" << r.nth
       << ", detail=" << r.detail << ")";
    if (r.world_rank < 0 || r.world_rank >= num_ranks)
      bad(os.str() + ": world_rank out of range [0, " +
          std::to_string(num_ranks) + ")");
    if (r.nth < 1) bad(os.str() + ": nth must be >= 1 (1-based occurrence)");
    if (r.detail < -1) bad(os.str() + ": detail must be -1 (any) or >= 0");
  }
  for (std::size_t i = 0; i < corruptions_.size(); ++i) {
    const CorruptionRule& r = corruptions_[i];
    std::ostringstream os;
    os << "CorruptionRule #" << i << " (rank=" << r.world_rank
       << ", nth=" << r.nth << ", at=" << r.at << ")";
    if (r.world_rank < 0 || r.world_rank >= num_ranks)
      bad(os.str() + ": world_rank out of range [0, " +
          std::to_string(num_ranks) + ")");
    if (r.at < 0.0 && r.nth < 1)
      bad(os.str() + ": nth must be >= 1 (1-based occurrence)");
  }
  for (std::size_t i = 0; i < timed_.size(); ++i) {
    const TimedCrash& t = timed_[i];
    std::ostringstream os;
    os << "TimedCrash #" << i << " (rank=" << t.world_rank
       << ", at=" << t.at << ")";
    if (t.world_rank < 0 || t.world_rank >= num_ranks)
      bad(os.str() + ": world_rank out of range [0, " +
          std::to_string(num_ranks) + ")");
    if (!(t.at >= 0.0)) bad(os.str() + ": crash time must be >= 0");
  }
}

void FaultPlan::maybe_crash(mpi::Proc& proc, CrashSite site, int detail) {
  if (rules_.empty()) return;
  const int rank = proc.world_rank();

  // Bump the occurrence counter for this (rank, site, detail-as-matched).
  // The lock must NOT be held across World::crash below: killing the
  // process unwinds this fiber, and unwind paths may reach this plan again.
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& rule : rules_) {
      if (rule.world_rank != rank || rule.site != site) continue;
      if (rule.detail != -1 && rule.detail != detail) continue;

      Counter* ctr = nullptr;
      for (auto& c : counters_) {
        if (c.world_rank == rank && c.site == site && c.detail == rule.detail) {
          ctr = &c;
          break;
        }
      }
      if (!ctr) {
        counters_.push_back(Counter{rank, site, rule.detail, 0});
        ctr = &counters_.back();
      }
      ++ctr->count;
      if (ctr->count == rule.nth) {
        ++fired_;
        fire = true;
        break;
      }
    }
  }
  if (fire) {
    proc.world().crash(rank);
    // crash() kills our own process; the next simulator call raises
    // ProcessKilled. Force it now so "crash at this site" is exact.
    proc.context().check_killed();
    REPMPI_CHECK_MSG(false, "crash did not raise ProcessKilled");
  }
}

bool FaultPlan::should_corrupt(mpi::Proc& proc) {
  if (corruptions_.empty()) return false;
  const int rank = proc.world_rank();
  const sim::Time now = proc.now();
  std::lock_guard<std::mutex> lock(mu_);
  int* count = nullptr;
  for (auto& [r, c] : exec_counts_) {
    if (r == rank) {
      count = &c;
      break;
    }
  }
  if (!count) {
    exec_counts_.emplace_back(rank, 0);
    count = &exec_counts_.back().second;
  }
  ++*count;
  for (std::size_t i = 0; i < corruptions_.size(); ++i) {
    const CorruptionRule& rule = corruptions_[i];
    if (rule.world_rank != rank) continue;
    if (rule.at >= 0.0) {
      // Time-triggered: first execution at/after the planted instant. The
      // fire decision depends only on virtual time, so it is bit-identical
      // across --jobs/--shards/--backend.
      if (!corruption_done_[i] && now >= rule.at) {
        corruption_done_[i] = 1;
        ++corruptions_fired_;
        return true;
      }
    } else if (rule.nth == *count) {
      ++corruptions_fired_;
      return true;
    }
  }
  return false;
}

}  // namespace repmpi::fault
