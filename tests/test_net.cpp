// Unit tests for the network/machine model: roofline compute cost, topology
// placement, transfer timing, NIC serialization, FIFO enforcement.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/machine_model.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace repmpi::net {
namespace {

TEST(MachineModel, RooflinePicksDominantTerm) {
  MachineModel m;
  m.flop_rate = 1e9;
  m.mem_bandwidth = 1e9;
  // Compute-bound: many flops, few bytes.
  EXPECT_DOUBLE_EQ(m.compute_time(/*flops=*/1e6, /*bytes=*/10.0), 1e-3);
  // Memory-bound: few flops, many bytes.
  EXPECT_DOUBLE_EQ(m.compute_time(/*flops=*/10.0, /*bytes=*/1e6), 1e-3);
}

TEST(MachineModel, DefaultKernelShape) {
  // The default calibration must make waxpby memory-bound and sparsemv much
  // more expensive per output byte than waxpby — the property the paper's
  // Fig. 5a rests on.
  const MachineModel m;
  const double waxpby_per_elem = m.compute_time(2.0, 24.0);
  const double sparsemv_per_row = m.compute_time(54.0, 380.0);
  EXPECT_GT(sparsemv_per_row, 8.0 * waxpby_per_elem);
  // Update transfer per 8-byte output exceeds waxpby compute per element:
  // intra-parallelized waxpby must lose to plain replication.
  const double update_per_elem = 8.0 / m.net_bandwidth;
  EXPECT_GT(2.0 * update_per_elem, waxpby_per_elem);
}

TEST(ComputeCost, Arithmetic) {
  ComputeCost a{10.0, 100.0};
  ComputeCost b{5.0, 50.0};
  ComputeCost c = a + b;
  c += b;
  EXPECT_DOUBLE_EQ(c.flops, 20.0);
  EXPECT_DOUBLE_EQ(c.mem_bytes, 200.0);
}

TEST(Topology, BlockPlacement) {
  Topology t(10, 4);
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(3), 0);
  EXPECT_EQ(t.node_of(4), 1);
  EXPECT_EQ(t.node_of(9), 2);
  EXPECT_EQ(t.num_nodes(), 3);
  EXPECT_TRUE(t.same_node(0, 3));
  EXPECT_FALSE(t.same_node(3, 4));
}

TEST(Topology, ReplicatedPlacementSeparatesReplicas) {
  // 8 logical ranks, degree 2, 4 cores/node: replicas of any logical rank
  // must land on different nodes (the paper's placement rule).
  const Topology t = Topology::replicated(8, 2, 4);
  EXPECT_EQ(t.num_processes(), 16);
  for (int l = 0; l < 8; ++l) {
    EXPECT_FALSE(t.same_node(l, l + 8)) << "logical rank " << l;
  }
}

TEST(Topology, ReplicatedPlacementKeepsPlanesCompact) {
  const Topology t = Topology::replicated(8, 2, 4);
  // Plane 0 occupies nodes 0..1, plane 1 occupies nodes 2..3.
  EXPECT_EQ(t.node_of(0), 0);
  EXPECT_EQ(t.node_of(7), 1);
  EXPECT_EQ(t.node_of(8), 2);
  EXPECT_EQ(t.node_of(15), 3);
}

class NetworkTest : public ::testing::Test {
 protected:
  MachineModel model_ = [] {
    MachineModel m;
    m.net_latency = 1e-6;
    m.net_bandwidth = 1e9;
    m.intranode_latency = 1e-7;
    m.intranode_bandwidth = 1e10;
    return m;
  }();
};

TEST_F(NetworkTest, InterNodeTransferTime) {
  sim::Simulator sim;
  Network net(sim, model_, Topology(8, 4));
  // 0 (node 0) -> 4 (node 1): latency + bytes/bw.
  const sim::Time arrival = net.reserve_transfer(0, 4, 1000000);
  EXPECT_NEAR(arrival, 1e-6 + 1e-3, 1e-12);
}

TEST_F(NetworkTest, IntraNodeIsCheap) {
  sim::Simulator sim;
  Network net(sim, model_, Topology(8, 4));
  const sim::Time arrival = net.reserve_transfer(0, 1, 1000000);
  EXPECT_NEAR(arrival, 1e-7 + 1e-4, 1e-12);
  EXPECT_EQ(net.stats().intranode_messages, 1u);
}

TEST_F(NetworkTest, FullDuplexAllowsOpposingStreams) {
  sim::Simulator sim;
  Network net(sim, model_, Topology(8, 4));
  const sim::Time a1 = net.reserve_transfer(0, 4, 1000000);
  const sim::Time a2 = net.reserve_transfer(4, 0, 1000000);
  EXPECT_NEAR(a1, 1e-3 + 1e-6, 1e-9);
  EXPECT_NEAR(a2, 1e-3 + 1e-6, 1e-9);
}

TEST_F(NetworkTest, DisjointPairsDoNotContend) {
  sim::Simulator sim;
  Network net(sim, model_, Topology(16, 4));
  const sim::Time a1 = net.reserve_transfer(0, 4, 1000000);   // nodes 0,1
  const sim::Time a2 = net.reserve_transfer(8, 12, 1000000);  // nodes 2,3
  EXPECT_NEAR(a1, a2, 1e-12);
}

TEST_F(NetworkTest, PerPairFifoHoldsForMixedSizes) {
  sim::Simulator sim;
  Network net(sim, model_, Topology(8, 4));
  // Large message posted first must not be overtaken by a small one on the
  // same (src,dst) pair, even intra-node where there is no NIC queue.
  const sim::Time big = net.reserve_transfer(0, 1, 10000000);
  const sim::Time small = net.reserve_transfer(0, 1, 8);
  EXPECT_GE(small, big);
}

TEST_F(NetworkTest, InternodeArrivalsPerPairAreNondecreasing) {
  // The invariant that lets internode pairs go without a FIFO clock: each
  // send starts at or after the NIC lanes the pair's previous send advanced,
  // and latency and bandwidth are the same for every pair, so a pair's
  // arrivals never decrease, whatever the sizes, the interleaving with other
  // pairs or the send instants (the sharded machine replays each window's
  // sends in a sorted order, not in send order).
  const Topology topo(32, 4);  // 8 nodes
  sim::Simulator sim;
  Network net(sim, model_, topo);
  support::Rng rng(0xf1f0ULL);
  std::map<std::pair<int, int>, sim::Time> last;
  double now = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const int src = static_cast<int>(rng.next_below(32));
    int dst = static_cast<int>(rng.next_below(32));
    if (topo.same_node(src, dst)) dst = (dst + 4) % 32;
    // Mostly tiny messages, some up to 1 MB; send instants drift forward
    // with occasional steps back.
    const std::size_t bytes = rng.next_below(8) == 0
                                  ? rng.next_below(1u << 20)
                                  : rng.next_below(64);
    now = std::max(0.0, now + rng.uniform(-2e-6, 5e-6));
    const sim::Time arrival = net.reserve_transfer_at(src, dst, bytes, now);
    const auto [it, fresh] = last.try_emplace({src, dst}, arrival);
    if (!fresh) {
      ASSERT_GE(arrival, it->second)
          << "pair " << src << "->" << dst << " message " << i;
      it->second = arrival;
    }
  }
  EXPECT_EQ(net.stats().intranode_messages, 0u);
  EXPECT_GT(last.size(), 500u);
}

TEST_F(NetworkTest, IntranodeFifoOnUnevenNodes) {
  // Intranode pairs keep a clock per (src, dst's slot on its node). Nodes
  // of 3, 1 and 2 processes, placed out of rank order: every intranode pair
  // (self-sends included) must hold a small message behind its own large
  // one, and behind nothing else.
  const Topology topo(std::vector<int>{2, 0, 0, 1, 2, 0});
  const sim::Time big_arrival = 1e-7 + 10000000 / 1e10;
  const sim::Time small_alone = 1e-7 + 8 / 1e10;
  for (int src = 0; src < topo.num_processes(); ++src) {
    for (int dst = 0; dst < topo.num_processes(); ++dst) {
      if (!topo.same_node(src, dst)) continue;
      sim::Simulator sim;
      Network net(sim, model_, topo);
      EXPECT_DOUBLE_EQ(net.reserve_transfer(src, dst, 10000000), big_arrival);
      // Every other intranode pair is unaffected by that message.
      for (int a = 0; a < topo.num_processes(); ++a) {
        for (int b = 0; b < topo.num_processes(); ++b) {
          if (!topo.same_node(a, b) || (a == src && b == dst)) continue;
          EXPECT_DOUBLE_EQ(net.reserve_transfer(a, b, 8), small_alone)
              << a << "->" << b << " after " << src << "->" << dst;
        }
      }
      EXPECT_DOUBLE_EQ(net.reserve_transfer(src, dst, 8), big_arrival)
          << src << "->" << dst;
    }
  }
}

TEST_F(NetworkTest, StatsAccumulate) {
  sim::Simulator sim;
  Network net(sim, model_, Topology(8, 4));
  net.reserve_transfer(0, 4, 100);
  net.reserve_transfer(0, 4, 200);
  EXPECT_EQ(net.stats().messages, 2u);
  EXPECT_EQ(net.stats().bytes, 300u);
}

}  // namespace
}  // namespace repmpi::net
