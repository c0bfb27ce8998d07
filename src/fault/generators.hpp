#pragma once

// Hostile-environment fault generators: seeded stochastic processes that
// expand into concrete, fully deterministic fault plans (fault/failure.hpp)
// and machine-model perturbations (net/machine_model.hpp) *before* a run
// starts. Everything downstream of a generator is a plain data structure, so
// a (seed, parameters) pair reproduces the same hostile scenario bit-for-bit
// across --jobs / --shards / --backend.
//
// Two failure processes, widening the space the paper could not run:
//
//  * correlated domain kills: a switch/PSU failure takes out every node of a
//    failure domain at one instant — exactly the event that defeats replica
//    placement unless it is domain-aware (net/topology.hpp), and
//  * bursty SDC: silent-data-corruption arrivals from a non-homogeneous
//    Poisson process, sampled by thinning (candidates at the peak rate, each
//    accepted with probability rate(t)/rate_max — cf. Hohmann,
//    arXiv:1901.10754) so a burst window multiplies the base rate.
//
// Plus a straggler generator producing per-node compute slowdown factors.

#include <cstdint>
#include <vector>

#include "fault/failure.hpp"
#include "net/topology.hpp"
#include "support/rng.hpp"

namespace repmpi::fault {

/// Kills one specific domain at `at`: every process in it crashes at that
/// instant. The deterministic building block of the domain-kill tests and
/// the correlated bench's "wipe exactly this replica set" scenario.
void kill_domain_at(FaultPlan& plan, const net::Topology& topo, int domain,
                    double at);

/// Bursty SDC via NHPP thinning: corruption events on each rank arrive at
/// base_rate outside and base_rate * burst_factor inside [burst_start,
/// burst_end). Candidates are drawn at the peak rate and accepted with
/// probability rate(t)/rate_max, so the accepted stream follows the
/// time-varying intensity exactly. Each accepted arrival becomes a
/// time-triggered CorruptionRule. Returns the number of events planted.
int generate_bursty_sdc(FaultPlan& plan, int num_ranks, double base_rate,
                        double burst_factor, double burst_start,
                        double burst_end, double horizon, support::Rng& rng);

/// Straggler distribution: each node is slowed (factor `slow_factor` >= 1)
/// independently with probability `fraction`; all other nodes get 1.0.
/// The result plugs into MachineModel::node_slowdown.
std::vector<double> generate_straggler_slowdowns(int num_nodes,
                                                 double fraction,
                                                 double slow_factor,
                                                 support::Rng& rng);

}  // namespace repmpi::fault
