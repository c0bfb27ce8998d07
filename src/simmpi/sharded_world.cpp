#include "simmpi/sharded_world.hpp"

#include <algorithm>
#include <utility>

#include "support/error.hpp"

namespace repmpi::mpi {

ShardedMachine::ShardedMachine(int shards, const net::MachineModel& model,
                               const net::Topology& topo, int num_ranks)
    : shard_of_rank_(topo.contiguous_node_shards(shards)),
      engine_(shards, model.min_remote_latency()),
      outbox_(static_cast<std::size_t>(shards)),
      announces_(static_cast<std::size_t>(shards)),
      aborts_(static_cast<std::size_t>(shards)) {
  REPMPI_CHECK_MSG(num_ranks == topo.num_processes(),
                   "rank count " << num_ranks << " != topology process count "
                                 << topo.num_processes());
  nets_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    // Per-shard networks carry intranode transfers only (a shard owns whole
    // nodes, so same-node traffic never crosses shards) and hold the FIFO
    // clocks; the cross-shard network alone holds NIC-lane state, and its
    // internode arrivals need no clock.
    nets_.push_back(
        std::make_unique<net::Network>(engine_.shard(s), model, topo));
  }
  xnet_ = std::make_unique<net::Network>(engine_.shard(0), model, topo);
  engine_.set_boundary_hook(
      [this](sim::Time window_end) { at_boundary(window_end); });
  world_ = std::make_unique<World>(*this, num_ranks);
}

ShardedMachine::~ShardedMachine() = default;

void ShardedMachine::run() { engine_.run(); }

void ShardedMachine::at_boundary(sim::Time window_end) {
  // 1. Internode sends: merge every shard's outbox, order by the
  //    layout-independent key, reserve against the single cross-shard
  //    network. The network charges at least `lookahead` of latency past
  //    the (pre-boundary) send instant, so every arrival is at or beyond
  //    the horizon — scheduling it on the destination shard is safe.
  merge_scratch_.clear();
  for (auto& box : outbox_) {
    std::move(box.begin(), box.end(), std::back_inserter(merge_scratch_));
    box.clear();
  }
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const InternodeSend& a, const InternodeSend& b) {
              if (a.t != b.t) return a.t < b.t;
              if (a.src_world != b.src_world) return a.src_world < b.src_world;
              return a.src_seq < b.src_seq;
            });
  for (InternodeSend& op : merge_scratch_) {
    const sim::Time arrival = xnet_->reserve_transfer_at(
        op.src_world, op.dst_world, op.data.size(), op.t);
    REPMPI_CHECK_MSG(arrival >= window_end,
                     "internode arrival " << arrival
                                          << " inside the closed window (end "
                                          << window_end << ")");
    ++internode_sends_;
    world_->deliver_internode_at(std::move(op), arrival);
  }
  merge_scratch_.clear();

  // 2. Death announcements: every shard's failure detector fires at the
  //    same virtual instant (crash_time + detection_delay, which crash()
  //    checked is >= lookahead, hence at or beyond this horizon).
  for (auto& queue : announces_) {
    for (const PendingAnnounce& a : queue) {
      for (int s = 0; s < num_shards(); ++s) {
        engine_.shard(s).schedule_internal_at(
            a.when, [this, rank = a.world_rank, s] {
              world_->announce_on_shard(rank, s);
            });
      }
    }
    queue.clear();
  }

  // 2b. Job aborts (both replicas of a logical rank lost): like death
  //     announcements, the abort fires on every shard at the same virtual
  //     instant — observation time + detection delay, which
  //     declare_job_failed checked is >= lookahead, hence at or beyond this
  //     horizon. abort_on_shard is idempotent, so duplicate declarations
  //     from different ranks/windows are harmless.
  for (auto& queue : aborts_) {
    for (const sim::Time when : queue) {
      for (int s = 0; s < num_shards(); ++s) {
        engine_.shard(s).schedule_internal_at(
            when, [this, s] { world_->abort_on_shard(s); });
      }
    }
    queue.clear();
  }

  // 3. The protocol layer's deferred host-side work (the replication
  //    layer trims its send logs below the floors its receivers reached).
  //    It schedules nothing, so virtual time cannot depend on it.
  if (LayerState* layer = world_->layer()) layer->at_boundary();

  // 4. Companion retirement, once, at the horizon of the window in which
  //    the last main settled — a deterministic virtual time, since which
  //    window that is depends only on the mains' execution.
  if (retire_requested_.load(std::memory_order_relaxed) && !retired_) {
    retired_ = true;
    for (int s = 0; s < num_shards(); ++s) {
      engine_.shard(s).schedule_internal_at(
          window_end, [this, s] { world_->retire_on_shard(s); });
    }
  }
}

sim::SubstrateTotals ShardedMachine::counters() const {
  sim::SubstrateTotals total;
  for (int s = 0; s < num_shards(); ++s) total += engine_.shard(s).counters();
  return total;
}

net::NetworkStats ShardedMachine::net_stats() const {
  net::NetworkStats total;
  for (const auto& n : nets_) {
    total.messages += n->stats().messages;
    total.bytes += n->stats().bytes;
    total.intranode_messages += n->stats().intranode_messages;
  }
  total.messages += xnet_->stats().messages;
  total.bytes += xnet_->stats().bytes;
  total.intranode_messages += xnet_->stats().intranode_messages;
  return total;
}

ShardedMachine::Stats ShardedMachine::stats() const {
  return {engine_.windows(), internode_sends_};
}

}  // namespace repmpi::mpi
