#pragma once

// Analytic fault-tolerance efficiency models (paper Sections II and VI).
//
// The paper's motivation rests on three quantities:
//  * the efficiency of coordinated checkpoint/restart (cCR) at scale, via
//    Daly's optimal-interval model [8];
//  * the efficiency ceiling of replication, 1/r, and the very large mean
//    number of node failures a degree-2 replicated job absorbs before any
//    logical process loses both replicas [16] — which is why replication
//    needs only a negligible checkpointing frequency;
//  * the intra-parallelization model: replication's 1/r ceiling is lifted
//    by the in-section speedup s over the fraction f of execution spent in
//    intra-parallel sections.
//
// These close the loop with the measured results: bench_model evaluates
// them across scales and compares with the measured per-app (f, s).

#include <cstdint>

#include "support/rng.hpp"

namespace repmpi::model {

/// Parameters of a checkpointing system.
struct CheckpointModel {
  double node_mtbf_years = 5.0;  ///< per-node MTBF
  double checkpoint_write_s = 600.0;   ///< delta: time to write a checkpoint
  double restart_s = 600.0;            ///< R: time to restart from one
};

/// System MTBF for `nodes` nodes with independent exponential failures.
double system_mtbf_s(double node_mtbf_years, int nodes);

/// Daly's first-order optimal checkpoint interval:
///   tau_opt = sqrt(2 * delta * M) - delta   (clamped to >= delta).
double daly_optimal_interval_s(double delta_s, double system_mtbf_s);

/// Workload efficiency of cCR at the optimal interval (Daly's model):
/// fraction of wall-clock spent on useful work, accounting for checkpoint
/// writes, lost work and restarts.
double ccr_efficiency(const CheckpointModel& m, int nodes);

/// Expected number of process failures a degree-2 replicated job absorbs
/// before some logical process has lost both replicas (the "birthday"
/// result of [16]): for n replica pairs this grows like sqrt(pi*n/2).
/// Closed-form approximation.
double expected_failures_to_interruption(int num_pairs);

/// Monte-Carlo estimate of the same quantity (used to validate the
/// approximation in tests and in the bench).
double simulate_failures_to_interruption(int num_pairs, int trials,
                                         support::Rng rng);

/// Mean time to job interruption for a degree-2 replicated job on `nodes`
/// nodes (half of them replicas): failures arrive at the system rate and
/// the job survives expected_failures_to_interruption of them.
double replicated_job_mtti_s(double node_mtbf_years, int num_pairs);

/// Efficiency of plain replication of degree r, accounting for the rare
/// restarts (checkpoint model used only at the replicated-job MTTI scale).
double replication_efficiency(const CheckpointModel& m, int nodes, int degree);

/// Efficiency of replication + intra-parallelization: the 1/r ceiling
/// lifted by in-section speedup `s` over section fraction `f` (fractions of
/// the *replicated* execution time; s <= degree).
///   E = (1/r) / ((1 - f) + f / s) * availability-term
double intra_replication_efficiency(const CheckpointModel& m, int nodes,
                                    int degree, double section_fraction,
                                    double section_speedup);

/// Partial replication (paper Section II, ref [18] "Does partial
/// replication pay off?"): a fraction `replicated_fraction` of the logical
/// processes runs with degree 2, the rest unreplicated, with random
/// placement (no failure predictor). The job is interrupted by the FIRST
/// failure hitting an unreplicated process or a widowed replica, so the
/// MTTI barely improves until nearly everything is replicated — while the
/// resource overhead grows linearly. Returns the workload efficiency under
/// the same checkpoint fallback as the other models; reproduces [18]'s
/// negative result.
double partial_replication_efficiency(const CheckpointModel& m, int nodes,
                                      double replicated_fraction);

/// Mean time to interruption for partial replication (used by the bench to
/// show the MTTI curve's knee at fraction -> 1).
double partial_replication_mtti_s(double node_mtbf_years, int num_logical,
                                  double replicated_fraction);

// --- Bursty-SDC models (compared against the hostile_sdc bench) -----------

/// Expected event count of the bursty-SDC arrival process: a non-homogeneous
/// Poisson process with intensity `base_rate` outside and
/// `base_rate * burst_factor` inside [burst_start, burst_end), integrated
/// over [0, horizon). This is the mean of the thinned generator in
/// fault/generators.cpp (expectation of a Poisson count is the integral of
/// the intensity).
double nhpp_expected_events(double base_rate, double burst_factor,
                            double burst_start, double burst_end,
                            double horizon);

/// Efficiency of duplicate-execution SDC detection under an expected
/// `expected_events` corruptions when each detected event forces
/// re-execution of a fraction `reexec_fraction` of the work:
///   E = 1 / (1 + expected_events * reexec_fraction).
double sdc_reexec_efficiency(double expected_events, double reexec_fraction);

}  // namespace repmpi::model
