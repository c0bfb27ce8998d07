#pragma once

// The scenario grid behind the paper's figures, defined once: the cells
// (logical procs x replication degree x failure scenario), each scenario's
// crash plan, cell-key parsing, and the diffable per-cell dump. The
// repmpi_sweep tool and the in-process `sweep` bench (bench/bench_sweep.cpp)
// both build their runs from here. The dump format is a contract — two
// equivalent result sets (clean vs killed-and-resumed) must print
// byte-identical text, which is how the chaos CI job asserts crash recovery
// lost and corrupted nothing.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "support/result_log.hpp"

namespace repmpi::tools {

struct Cell {
  int logical = 0;
  int degree = 0;
  std::string scenario;  // none / early_crash / late_crash

  std::string key() const {
    return "hpccg.l" + std::to_string(logical) + ".d" +
           std::to_string(degree) + "." + scenario;
  }
};

/// The sweep grid: native references first, then every replicated
/// (logical × degree × failure) cell.
inline std::vector<Cell> make_grid() {
  std::vector<Cell> cells;
  const int logicals[] = {2, 4};
  const int degrees[] = {2, 3};
  const char* scenarios[] = {"none", "early_crash", "late_crash"};
  for (int l : logicals) cells.push_back({l, 1, "none"});
  for (int l : logicals)
    for (int d : degrees)
      for (const char* s : scenarios) cells.push_back({l, d, s});
  return cells;
}

/// The fault plan of a cell's failure scenario for an `iters`-iteration
/// HPCCG run ("none" and unknown scenarios: no faults). Both crash
/// scenarios kill the same replica, world rank `logical` (plane 1 of
/// logical rank 0).
inline fault::FaultPlan crash_plan(const Cell& cell, int iters) {
  fault::FaultPlan plan;
  if (cell.scenario == "early_crash") {
    // The replica dies right after its 2nd task.
    plan.add({.world_rank = cell.logical,
              .site = fault::CrashSite::kAfterTaskExec, .nth = 2});
  } else if (cell.scenario == "late_crash") {
    // The same replica dies mid-update deep into the run.
    plan.add({.world_rank = cell.logical,
              .site = fault::CrashSite::kBetweenArgSends, .nth = 4 * iters});
  }
  return plan;
}

inline bool parse_key(const std::string& key, Cell* out) {
  int l = 0, d = 0;
  char scenario[32] = {};
  if (std::sscanf(key.c_str(), "hpccg.l%d.d%d.%31s", &l, &d, scenario) != 3)
    return false;
  out->logical = l;
  out->degree = d;
  out->scenario = scenario;
  return out->key() == key;
}

/// GLIBC_TUNABLES for a sweep worker: the caller's value `inherited`
/// (nullptr when unset) plus glibc's transparent-huge-page malloc policy,
/// `glibc.malloc.hugetlb=1`, so the worker faults its brk heap in 2 MiB
/// pages. A caller's own `glibc.malloc.hugetlb=` setting is kept as is.
inline std::string worker_glibc_tunables(const char* inherited) {
  const std::string policy = "glibc.malloc.hugetlb=1";
  const std::string have = inherited == nullptr ? "" : inherited;
  if (have.empty()) return policy;
  // Tunables are `:`-separated name=value pairs.
  if ((":" + have).find(":glibc.malloc.hugetlb=") != std::string::npos)
    return have;
  return have + ":" + policy;
}

/// Extracts `"name": <number>` from a metrics blob; NaN when absent.
inline double blob_number(const std::string& blob, const std::string& name) {
  const std::string needle = "\"" + name + "\": ";
  const auto pos = blob.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(blob.c_str() + pos + needle.size(), nullptr);
}

/// Prints the diffable dump: one line per cell, key-sorted, deterministic
/// fields only (no attempts/wall/host data) — two dumps of equivalent
/// result sets diff clean regardless of crashes, retries, or resumes.
inline void dump_cells(
    const std::map<std::string, support::ResultRecord>& latest) {
  // Native reference walls for the efficiency column (fixed-problem
  // protocol, as in the sweep bench).
  std::map<int, double> native_wall;
  for (const auto& [key, r] : latest) {
    Cell c;
    if (r.status == support::CellStatus::kOk && parse_key(key, &c) &&
        c.degree == 1)
      native_wall[c.logical] = blob_number(r.blob, "wallclock");
  }

  for (const auto& [key, r] : latest) {
    if (r.status != support::CellStatus::kOk) {
      std::printf("%s failed=%s code=%d\n", key.c_str(),
                  support::to_string(r.status), r.code);
      continue;
    }
    std::string blob = r.blob;
    while (!blob.empty() && (blob.back() == '\n' || blob.back() == '\r'))
      blob.pop_back();
    Cell c;
    double eff = std::nan("");
    if (parse_key(key, &c)) {
      if (c.degree == 1) {
        eff = 1.0;
      } else if (native_wall.count(c.logical) > 0) {
        eff = apps::efficiency_fixed_problem(
            native_wall[c.logical], blob_number(blob, "wallclock"), c.degree);
      }
    }
    if (std::isnan(eff)) {
      std::printf("%s ok %s efficiency=n/a\n", key.c_str(), blob.c_str());
    } else {
      std::printf("%s ok %s efficiency=%.17g\n", key.c_str(), blob.c_str(),
                  eff);
    }
  }
}

}  // namespace repmpi::tools
