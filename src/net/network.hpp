#pragma once

// Network transfer scheduling on top of the DES.
//
// A transfer from process src to dst reserves serialization time on the
// full-duplex NICs of both endpoints' nodes (the sender's transmit lane and
// the receiver's receive lane) and is delivered latency seconds after it
// leaves the wire. Intra-node transfers
// go through the shared-memory transport instead. Per-(src,dst) arrivals are
// nondecreasing, so the MPI layer's non-overtaking rule holds even when
// message sizes differ.
//
// Reservation state: NIC availability lives in vectors indexed by node id.
// An internode pair needs nothing more for FIFO order: each send starts at
// or after the lanes the pair's previous send advanced (lanes only move
// forward), its latency and bandwidth are the same for every pair, and IEEE
// rounding is monotone, so its arrival can never precede the previous one.
// An intranode pair has no lane, and a small message would overtake a large
// one, so it keeps a last-arrival clock. That table is dense, indexed by
// (src, dst's slot among the processes of its node), and is allocated by
// the first intranode transfer: a Network that only carries internode
// traffic (the sharded machine's cross-shard network) holds no FIFO state.
// reserve_transfer is the per-message hot path.

#include <cstdint>
#include <vector>

#include "net/machine_model.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"

namespace repmpi::net {

struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t intranode_messages = 0;
};

class Network {
 public:
  Network(sim::Simulator& sim, MachineModel model, Topology topo)
      : sim_(sim), model_(std::move(model)), topo_(std::move(topo)) {
    const auto nodes = static_cast<std::size_t>(topo_.num_nodes());
    nic_tx_busy_.assign(nodes, 0.0);
    nic_rx_busy_.assign(nodes, 0.0);
  }

  // Attribute delivered messages to the owning simulator instance (which
  // flushes them into the thread-local substrate totals when it is
  // destroyed). A Network must be destroyed before its Simulator, on the
  // same thread — true everywhere by declaration order.
  ~Network() { sim_.add_messages(stats_.messages); }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  const MachineModel& model() const { return model_; }
  const Topology& topology() const { return topo_; }
  const NetworkStats& stats() const { return stats_; }

  /// Reserves wire time for a message and returns its arrival (virtual)
  /// time at dst. Does not schedule any event — the caller (the MPI layer)
  /// schedules the delivery callback at the returned time.
  sim::Time reserve_transfer(int src, int dst, std::size_t bytes) {
    return reserve_transfer_at(src, dst, bytes, sim_.now());
  }

  /// reserve_transfer with an explicit send instant: the sharded machine
  /// replays each window's internode sends against the cross-shard lane
  /// state at the window boundary, in a layout-independent sorted order,
  /// after the sending shard's clock has already moved on.
  sim::Time reserve_transfer_at(int src, int dst, std::size_t bytes,
                                sim::Time now);

 private:
  /// Last arrival of the intranode pair (src, dst).
  sim::Time& fifo_clock(int src, int dst) {
    if (fifo_.empty()) init_fifo();
    const int slot = slot_[static_cast<std::size_t>(dst)];
    return fifo_[static_cast<std::size_t>(src) * slots_ +
                 static_cast<std::size_t>(slot)];
  }
  /// Sizes the intranode clock table: each process's slot on its node, and
  /// P * (most processes on one node) zeroed clocks.
  void init_fifo();

  sim::Simulator& sim_;
  MachineModel model_;
  Topology topo_;
  NetworkStats stats_;

  // NIC availability per node, indexed by node id: separate transmit and
  // receive lanes (full duplex).
  std::vector<sim::Time> nic_tx_busy_;
  std::vector<sim::Time> nic_rx_busy_;

  // Last arrival per intranode (src, dst) pair, at src * slots_ + slot_[dst];
  // empty until the first intranode transfer.
  std::vector<int> slot_;
  std::size_t slots_ = 0;
  std::vector<sim::Time> fifo_;
};

}  // namespace repmpi::net
