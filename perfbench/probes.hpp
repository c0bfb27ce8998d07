#pragma once

// Host calibration and per-layer probes of the benchmark driver.
//
// The calibration loops time the host, not the program: a reader compares
// them across runs to tell a slow host from a slow program. The probes each
// drive one layer through its public API with a fixed, tiny input and
// report the host cost per unit of work (per message, per section, per
// event, per append) or a computed bandwidth.

#include <map>
#include <string>

#include "trace.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/// Fixed ALU loop and fixed 32 MB pointer chase, each the median of three
/// timings: keys "alu_ms" and "chase_ms".
Metrics calibrate();

/// Runs every layer probe under `tracer`, one span each. `tmp_dir` must be
/// writable: the result-log probe appends (with fsync) to a file there.
/// `local_nx` is the per-rank grid edge of the kernel probe.
Metrics run_probes(Tracer& tracer, const std::string& tmp_dir, int local_nx);

}  // namespace perfbench
