#pragma once

// Replica layout: the mapping between logical MPI ranks and the physical
// processes that replicate them.
//
// Physical world rank of (logical l, lane k) is l + k * num_logical. "Lane"
// is the replica index; the state-machine replication protocol pairs lane k
// of a sender with lane k of a receiver, so in a failure-free run the two
// replica planes carry identical, independent traffic (the paper's SDR-MPI
// configuration, replication degree 2).

#include <vector>

#include "net/topology.hpp"
#include "support/error.hpp"

namespace repmpi::rep {

struct ReplicaLayout {
  int num_logical = 0;
  int degree = 1;

  int num_physical() const { return num_logical * degree; }

  int phys_rank(int logical, int lane) const {
    REPMPI_CHECK(logical >= 0 && logical < num_logical);
    REPMPI_CHECK(lane >= 0 && lane < degree);
    return logical + lane * num_logical;
  }

  int logical_of(int phys) const { return phys % num_logical; }
  int lane_of(int phys) const { return phys / num_logical; }

  /// Topology with replica planes on disjoint node sets (the paper places
  /// the replicas of a logical process on different nodes).
  net::Topology make_topology(int cores_per_node) const {
    if (degree == 1) return net::Topology(num_logical, cores_per_node);
    return net::Topology::replicated(num_logical, degree, cores_per_node);
  }
};

}  // namespace repmpi::rep
