#pragma once

// Cluster topology: maps simulated physical processes to nodes. The paper's
// cluster has 4 cores per node and always places the replicas of a logical
// process on *different* nodes; the placement helpers below encode both the
// default block placement and the replica-aware placement.

#include <vector>

#include "sim/simulator.hpp"
#include "support/error.hpp"

namespace repmpi::net {

class Topology {
 public:
  /// Block placement: process p lives on node p / cores_per_node.
  Topology(int num_processes, int cores_per_node)
      : cores_per_node_(cores_per_node) {
    REPMPI_CHECK(num_processes > 0 && cores_per_node > 0);
    node_of_.resize(static_cast<std::size_t>(num_processes));
    for (int p = 0; p < num_processes; ++p)
      node_of_[static_cast<std::size_t>(p)] = p / cores_per_node;
  }

  /// Explicit placement (process -> node).
  explicit Topology(std::vector<int> node_of, int cores_per_node = 4)
      : cores_per_node_(cores_per_node), node_of_(std::move(node_of)) {}

  int num_processes() const { return static_cast<int>(node_of_.size()); }
  int cores_per_node() const { return cores_per_node_; }

  int node_of(int process) const {
    REPMPI_CHECK(process >= 0 &&
                 static_cast<std::size_t>(process) < node_of_.size());
    return node_of_[static_cast<std::size_t>(process)];
  }

  int num_nodes() const {
    int n = 0;
    for (int node : node_of_) n = std::max(n, node + 1);
    return n;
  }

  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// Shard map for the sharded simulator: partitions the node id range into
  /// `shards` *contiguous* node intervals balanced by process count and
  /// returns the shard index per process. Contiguity means a shard owns
  /// whole nodes, so intranode traffic (which carries no lookahead-sized
  /// latency floor) never crosses a shard boundary. Deterministic in the
  /// topology alone; shards beyond the node count simply come out empty.
  std::vector<int> contiguous_node_shards(int shards) const {
    REPMPI_CHECK(shards >= 1);
    const auto nodes = static_cast<std::size_t>(num_nodes());
    const auto total = static_cast<long long>(num_processes());
    std::vector<long long> on_node(nodes, 0);
    for (int node : node_of_) ++on_node[static_cast<std::size_t>(node)];
    std::vector<int> shard_of_node(nodes, 0);
    long long before = 0;  // processes on nodes preceding this one
    for (std::size_t n = 0; n < nodes; ++n) {
      const auto s = static_cast<int>(before * shards / total);
      shard_of_node[n] = s < shards ? s : shards - 1;
      before += on_node[n];
    }
    std::vector<int> out(node_of_.size());
    for (std::size_t p = 0; p < node_of_.size(); ++p) {
      out[p] = shard_of_node[static_cast<std::size_t>(node_of_[p])];
    }
    return out;
  }

  /// Placement for replicated runs: physical process (logical L, replica k)
  /// gets index L + k * num_logical, and replica planes are laid out on
  /// disjoint node sets so that the two replicas of any logical process are
  /// on different, nearby nodes (the paper's placement rule, Section VI).
  static Topology replicated(int num_logical, int degree, int cores_per_node) {
    std::vector<int> node_of(
        static_cast<std::size_t>(num_logical * degree));
    const int nodes_per_plane =
        (num_logical + cores_per_node - 1) / cores_per_node;
    for (int k = 0; k < degree; ++k) {
      for (int l = 0; l < num_logical; ++l) {
        node_of[static_cast<std::size_t>(l + k * num_logical)] =
            k * nodes_per_plane + l / cores_per_node;
      }
    }
    return Topology(std::move(node_of), cores_per_node);
  }

 private:
  int cores_per_node_;
  std::vector<int> node_of_;
};

}  // namespace repmpi::net
