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
  const int src_node = topo_.node_of(src);
  const int dst_node = topo_.node_of(dst);
  const auto sn = static_cast<std::size_t>(src_node);
  const auto dn = static_cast<std::size_t>(dst_node);
  // Link class: messages crossing a switch/PSU domain boundary ride the
  // (possibly oversubscribed) inter-switch links. With domain modeling
  // off (nodes_per_domain == 0) every node is its own domain, so the
  // extra cost only applies when it was explicitly configured.
  const bool inter_switch =
      topo_.nodes_per_domain() > 0 &&
      !topo_.same_domain_nodes(src_node, dst_node);
  const double bw =
      inter_switch && model_.inter_switch_bandwidth > 0.0
          ? model_.inter_switch_bandwidth
          : model_.net_bandwidth;
  const double latency =
      model_.net_latency +
      (inter_switch ? model_.inter_switch_extra_latency : 0.0);
  const double wire = static_cast<double>(bytes) / bw;
  if (model_.nic_full_duplex) {
    sim::Time& tx = nic_tx_busy_[sn];
    sim::Time& rx = nic_rx_busy_[dn];
    const sim::Time start = std::max({now, tx, rx});
    tx = rx = start + wire;
    return start + wire + latency;
  }
  // Half duplex: the message occupies both endpoints' shared NIC lanes for
  // its serialization time. This is what makes the symmetric update exchange
  // between two replicas cost ~2x a one-way stream.
  sim::Time& s = nic_busy_[sn];
  sim::Time& d = nic_busy_[dn];
  const sim::Time start = std::max({now, s, d});
  s = d = start + wire;
  return start + wire + latency;
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
