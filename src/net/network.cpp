#include "net/network.hpp"

#include <algorithm>

namespace repmpi::net {

sim::Time Network::reserve_transfer_at(int src, int dst, std::size_t bytes,
                                       sim::Time now) {
  ++stats_.messages;
  stats_.bytes += bytes;

  if (topo_.same_node(src, dst)) {
    // No NIC lane orders an intranode pair's arrivals: clamp to its clock.
    ++stats_.intranode_messages;
    sim::Time& last = fifo_clock(src, dst);
    last = std::max(now + model_.intranode_latency +
                        static_cast<double>(bytes) / model_.intranode_bandwidth,
                    last);
    return last;
  }
  // Internode arrivals of one pair are nondecreasing by construction
  // (network.hpp), so they need no clock.
  const double wire = static_cast<double>(bytes) / model_.net_bandwidth;
  sim::Time& tx = nic_tx_busy_[static_cast<std::size_t>(topo_.node_of(src))];
  sim::Time& rx = nic_rx_busy_[static_cast<std::size_t>(topo_.node_of(dst))];
  const sim::Time start = std::max({now, tx, rx});
  tx = rx = start + wire;
  return start + wire + model_.net_latency;
}

void Network::init_fifo() {
  const auto p = static_cast<std::size_t>(topo_.num_processes());
  std::vector<int> on_node(static_cast<std::size_t>(topo_.num_nodes()), 0);
  slot_.resize(p);
  for (std::size_t q = 0; q < p; ++q) {
    const int node = topo_.node_of(static_cast<int>(q));
    slot_[q] = on_node[static_cast<std::size_t>(node)]++;
  }
  slots_ = static_cast<std::size_t>(
      *std::max_element(on_node.begin(), on_node.end()));
  fifo_.assign(p * slots_, 0.0);
}

}  // namespace repmpi::net
