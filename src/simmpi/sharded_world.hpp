#pragma once

// ShardedMachine: assembles a sharded MPI simulation.
//
// Owns the sharded engine (N simulators on N worker threads), one Network
// per shard for intranode traffic, a single cross-shard Network holding the
// NIC lane state, and the World spread over all shards.
// The World routes through it in sharded runs: rank fibers post internode
// sends and failure notifications into per-shard queues during a window,
// and the engine's serial window-boundary hook applies them here:
//
//   * internode sends — merged across shards, sorted by the layout-
//     independent (t, src_world, src_seq) key, reserved one by one against
//     the cross-shard network and scheduled on their destination shards.
//     Every arrival lands at or beyond the boundary horizon (the network
//     charges >= lookahead of latency), which is asserted.
//   * death announcements — scheduled on *every* shard as uncounted control
//     events at exactly crash_time + detection_delay.
//   * companion retirement — scheduled on every shard at the boundary
//     horizon of the window where the last main settled.
//   * the world's layer state — its at_boundary() runs host-side work that
//     must see every shard's state (the replication layer's log trimming);
//     it schedules no events.
//
// The three event application points are functions of virtual time and rank
// execution alone, so the resulting event streams — and with them virtual
// time, counters and fingerprints — are identical at any shard count.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "sim/shard.hpp"
#include "simmpi/world.hpp"

namespace repmpi::mpi {

class ShardedMachine {
 public:
  struct Stats {
    std::uint64_t windows = 0;          ///< conservative time windows run
    std::uint64_t internode_sends = 0;  ///< boundary-merged cross-node sends
  };

  ShardedMachine(int shards, const net::MachineModel& model,
                 const net::Topology& topo, int num_ranks);
  ~ShardedMachine();

  World& world() { return *world_; }

  /// Drives the engine to completion (after World::launch).
  void run();

  /// Aggregates across all shards (valid on the owning thread after run()).
  sim::SubstrateTotals counters() const;
  net::NetworkStats net_stats() const;
  Stats stats() const;

  // --- The World's routing ---------------------------------------------
  // The post_* members are called from shard worker threads during a window
  // and touch only that shard's slice; everything they queue is applied
  // serially at the next window boundary.
  int num_shards() const { return engine_.num_shards(); }
  int shard_of(int world_rank) const {
    return shard_of_rank_[static_cast<std::size_t>(world_rank)];
  }
  sim::Simulator& shard_sim(int shard) { return engine_.shard(shard); }
  net::Network& shard_net(int shard) {
    return *nets_[static_cast<std::size_t>(shard)];
  }
  sim::Time lookahead() const { return engine_.lookahead(); }
  /// Queues an internode send for the boundary merge (source shard thread).
  void post_internode(InternodeSend op) {
    outbox_[static_cast<std::size_t>(sim::current_shard())].push_back(
        std::move(op));
  }
  /// Requests a death announcement on every shard at absolute time `when`.
  void post_announce(int world_rank, sim::Time when) {
    announces_[static_cast<std::size_t>(sim::current_shard())].push_back(
        {world_rank, when});
  }
  /// Requests companion retirement at the end of the current window.
  void post_retire() {
    retire_requested_.store(true, std::memory_order_relaxed);
  }
  /// Requests a job abort (all surviving ranks killed) on every shard at
  /// absolute time `when` — the graceful both-replicas-lost shutdown.
  void post_abort(sim::Time when) {
    aborts_[static_cast<std::size_t>(sim::current_shard())].push_back(when);
  }

 private:
  struct PendingAnnounce {
    int world_rank;
    sim::Time when;
  };

  void at_boundary(sim::Time window_end);

  std::vector<int> shard_of_rank_;
  sim::ShardedEngine engine_;
  std::vector<std::unique_ptr<net::Network>> nets_;  ///< intranode, per shard
  std::unique_ptr<net::Network> xnet_;  ///< cross-shard NIC lanes
  std::vector<std::vector<InternodeSend>> outbox_;      ///< per source shard
  std::vector<std::vector<PendingAnnounce>> announces_; ///< per source shard
  std::vector<std::vector<sim::Time>> aborts_;          ///< per source shard
  std::vector<InternodeSend> merge_scratch_;
  std::atomic<bool> retire_requested_{false};
  bool retired_ = false;
  std::uint64_t internode_sends_ = 0;
  std::unique_ptr<World> world_;  ///< last: destroyed before sims/nets
};

}  // namespace repmpi::mpi
