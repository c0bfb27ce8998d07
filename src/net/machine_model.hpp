#pragma once

// Machine and network cost model.
//
// Calibrated to the paper's testbed (Grid'5000: 2.53 GHz 4-core Intel Xeon
// nodes, 16 GB, InfiniBand 20G, Open MPI 1.7). The absolute constants are
// *effective* rates — what an MPI process sustains in practice, not hardware
// peaks — chosen so that the compute-to-update-transfer trade-off that drives
// every result in the paper (Fig. 5 and Fig. 6) is preserved:
//
//  * compute cost is a per-process roofline  max(flops/flop_rate,
//    bytes/mem_bandwidth): HPCCG kernels are memory-bound, which is why
//    waxpby (2 flops per 24 touched bytes) is cheap per output byte while
//    sparsemv (~54 flops and ~380 touched bytes per 8-byte output) is
//    expensive per output byte;
//  * network cost is latency + size/bandwidth with per-node full-duplex
//    NIC serialization (InfiniBand links are uniform): the four
//    ranks of a node share the NIC, so the replica update exchange of
//    intra-parallelization is limited by the node's aggregate injection
//    bandwidth, exactly the effect that makes waxpby unprofitable in the
//    paper.
//
// See EXPERIMENTS.md ("Calibration") for the resulting kernel-level numbers.

#include <cstddef>

#include "sim/simulator.hpp"

namespace repmpi::net {

struct MachineModel {
  /// Effective per-core floating-point rate (flop/s). 2.53 GHz Nehalem-era
  /// core, ~2 flops/cycle sustained on these kernels.
  double flop_rate = 5.0e9;

  /// Effective per-process memory bandwidth (B/s). Four cores share the
  /// socket's ~13 GB/s, so one MPI process sustains ~3.2 GB/s on streaming
  /// kernels.
  double mem_bandwidth = 3.2e9;

  /// One-way small-message network latency (s). IB 20G with Open MPI ~4 us
  /// end to end.
  double net_latency = 4.0e-6;

  /// Effective per-direction network bandwidth (B/s). IB 20G (DDR 4x) moves
  /// 16 Gbit/s (2 GB/s) of payload per direction; Open MPI 1.7 sustains
  /// ~1.6 GB/s effective on medium messages. With four ranks per node
  /// sharing the NIC this reproduces the paper's waxpby result (E ~ 0.34).
  double net_bandwidth = 1.6e9;

  /// CPU time consumed on the sender per message (protocol overhead).
  double send_overhead = 0.4e-6;

  /// CPU time consumed on the receiver per message.
  double recv_overhead = 0.4e-6;

  /// Intra-node (shared-memory transport) latency and bandwidth.
  double intranode_latency = 0.6e-6;
  double intranode_bandwidth = 4.0e9;

  /// Extra per-message cost charged by the active-replication protocol
  /// (envelope checks, ordering metadata). Produces SDR-MPI's ~1-2% overhead
  /// on communication-bound codes (paper Fig. 6: E = 0.48-0.49 vs 0.5).
  double replication_msg_overhead = 0.5e-6;

  /// Minimum virtual time any inter-node influence needs to travel — the
  /// conservative lookahead of the sharded simulator (sim/shard.hpp). Every
  /// internode transfer is charged at least net_latency beyond its send
  /// instant (reserve_transfer only adds NIC serialization on top), so when
  /// shards own whole nodes, a time window of this length is causally
  /// closed. Intranode traffic never crosses shards and does not bound it.
  double min_remote_latency() const { return net_latency; }

  /// Time to copy bytes through memory (both a read and a write stream).
  double memcpy_time(std::size_t bytes) const {
    return static_cast<double>(bytes) / mem_bandwidth;
  }

  /// Roofline compute cost: whichever of flop throughput or memory traffic
  /// dominates.
  double compute_time(double flops, double mem_bytes) const {
    const double t_flops = flops / flop_rate;
    const double t_mem = mem_bytes / mem_bandwidth;
    return t_flops > t_mem ? t_flops : t_mem;
  }
};

/// Cost of executing a kernel, expressed in model units. Kernels return one
/// of these from their compute routines; the caller charges it to virtual
/// time via ComputeContext.
struct ComputeCost {
  double flops = 0.0;
  double mem_bytes = 0.0;

  ComputeCost& operator+=(const ComputeCost& o) {
    flops += o.flops;
    mem_bytes += o.mem_bytes;
    return *this;
  }
};

inline ComputeCost operator+(ComputeCost a, const ComputeCost& b) {
  a += b;
  return a;
}

}  // namespace repmpi::net
