#pragma once

// Hostile-environment fault generator: a seeded stochastic process that
// expands into a concrete, fully deterministic fault plan (fault/failure.hpp)
// *before* a run starts. Everything downstream of the generator is a plain
// data structure, so a (seed, parameters) pair reproduces the same hostile
// scenario bit-for-bit across --jobs / --shards / --backend.
//
// Bursty SDC: silent-data-corruption arrivals from a non-homogeneous Poisson
// process, sampled by thinning (candidates at the peak rate, each accepted
// with probability rate(t)/rate_max — cf. Hohmann, arXiv:1901.10754) so a
// burst window multiplies the base rate. A correlated crash (every replica
// of a logical rank at one instant) needs no generator: it is a set of
// FaultPlan::add_timed rules with one time.

#include "fault/failure.hpp"
#include "support/rng.hpp"

namespace repmpi::fault {

/// Bursty SDC via NHPP thinning: corruption events on each rank arrive at
/// base_rate outside and base_rate * burst_factor inside [burst_start,
/// burst_end). Candidates are drawn at the peak rate and accepted with
/// probability rate(t)/rate_max, so the accepted stream follows the
/// time-varying intensity exactly. Each accepted arrival becomes a
/// time-triggered CorruptionRule. Returns the number of events planted.
int generate_bursty_sdc(FaultPlan& plan, int num_ranks, double base_rate,
                        double burst_factor, double burst_start,
                        double burst_end, double horizon, support::Rng& rng);

}  // namespace repmpi::fault
