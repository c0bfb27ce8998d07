#pragma once

// Shared helper for MPI-substrate tests: builds a simulator + network +
// world, runs `body` on every rank, and propagates failures.

#include <functional>
#include <memory>

#include "net/machine_model.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"

namespace repmpi::testing {

struct MpiFixture {
  explicit MpiFixture(int num_ranks, int cores_per_node = 4,
                      net::MachineModel model = net::MachineModel{})
      : sim(std::make_unique<sim::Simulator>()),
        network(std::make_unique<net::Network>(
            *sim, model, net::Topology(num_ranks, cores_per_node))),
        world(std::make_unique<mpi::World>(*sim, *network, num_ranks)) {}

  /// Runs `body` on every rank to completion.
  void run(std::function<void(mpi::Proc&, mpi::Comm&)> body) {
    world->launch([body = std::move(body)](mpi::Proc& proc) {
      mpi::Comm comm = mpi::Comm::world(proc);
      body(proc, comm);
    });
    sim->run();
  }

  std::unique_ptr<sim::Simulator> sim;
  std::unique_ptr<net::Network> network;
  std::unique_ptr<mpi::World> world;
};

/// Posts a receive the way a replication agent posts its NACK mailbox: the
/// exact key (comm's channel, `src`, `tag`), watching no peer for death.
inline mpi::Request post_mailbox(mpi::Proc& proc, const mpi::Comm& comm,
                                 int src, int tag) {
  auto st = mpi::make_request_state();
  st->owner = proc.world().pid_of(proc.world_rank());
  st->comm_channel = comm.channel();
  st->match_source = src;
  st->match_tag = tag;
  proc.world().post_recv(proc.world_rank(), mpi::kNoPeer, st);
  return mpi::Request(std::move(st));
}

}  // namespace repmpi::testing
