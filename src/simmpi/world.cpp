#include "simmpi/world.hpp"

#include <algorithm>
#include <utility>

#include "simmpi/comm.hpp"
#include "simmpi/sharded_world.hpp"

namespace repmpi::mpi {

World::World(sim::Simulator& sim, net::Network& network, int num_ranks)
    : sim_(&sim),
      net_(&network),
      model_(&network.model()),
      num_ranks_(num_ranks) {
  REPMPI_CHECK(num_ranks > 0);
  REPMPI_CHECK_MSG(network.topology().num_processes() >= num_ranks,
                   "topology has fewer slots than ranks");
  ranks_ = std::vector<RankState>(static_cast<std::size_t>(num_ranks));
  phases_.resize(static_cast<std::size_t>(num_ranks));
  announced_.assign(static_cast<std::size_t>(num_ranks), 0);
  shard_ranks_.resize(1);
  shard_ranks_[0].resize(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) shard_ranks_[0][static_cast<std::size_t>(r)] = r;
}

World::World(ShardedMachine& machine, int num_ranks)
    : machine_(&machine),
      model_(&machine.shard_net(0).model()),
      num_ranks_(num_ranks) {
  REPMPI_CHECK(num_ranks > 0);
  REPMPI_CHECK_MSG(machine.shard_net(0).topology().num_processes() >= num_ranks,
                   "topology has fewer slots than ranks");
  ranks_ = std::vector<RankState>(static_cast<std::size_t>(num_ranks));
  phases_.resize(static_cast<std::size_t>(num_ranks));
  const auto shards = static_cast<std::size_t>(machine.num_shards());
  announced_.assign(shards * static_cast<std::size_t>(num_ranks), 0);
  shard_ranks_.resize(shards);
  for (int r = 0; r < num_ranks; ++r) {
    shard_ranks_[static_cast<std::size_t>(machine.shard_of(r))].push_back(r);
  }
}

sim::Simulator& World::sim_of(int world_rank) {
  return machine_ != nullptr
             ? machine_->shard_sim(machine_->shard_of(world_rank))
             : *sim_;
}

int World::num_shards() const {
  return machine_ != nullptr ? machine_->num_shards() : 1;
}

sim::Simulator& World::local_sim() {
  return machine_ != nullptr ? machine_->shard_sim(sim::current_shard())
                             : *sim_;
}

World::~World() {
  // Sharded runs: the engine's workers already terminated their own shards'
  // fibers on the threads that ran them; there is nothing left to unwind.
  if (sim_ != nullptr) sim_->terminate_processes();
}

void World::launch(std::function<void(Proc&)> main_fn) {
  REPMPI_CHECK_MSG(!launched_, "World::launch called twice");
  launched_ = true;
  for (int r = 0; r < num_ranks_; ++r) {
    auto fn = main_fn;
    ranks_[static_cast<std::size_t>(r)].pid = sim_of(r).spawn(
        "rank" + std::to_string(r), [this, r, fn](sim::Context& ctx) {
          Proc proc(*this, ctx, r);
          fn(proc);
          note_main_done();
        });
  }
}

void World::note_main_done() {
  ++mains_done_;
  maybe_retire_companions();
}

void World::maybe_retire_companions() {
  // The seq_cst increments make the thread that settles the last main see
  // the full sum; a double post is absorbed by the machine.
  if (mains_done_.load() + mains_crashed_.load() < num_ranks_) return;
  if (machine_ != nullptr) {
    // Cross-shard kills must not happen from a worker mid-window; the
    // machine schedules retire_on_shard control events at the boundary.
    machine_->post_retire();
    return;
  }
  // Every main has finished or crashed: nobody can request replays anymore,
  // so the progress agents (which otherwise park forever on their control
  // receive) are retired.
  for (auto& rs : ranks_) {
    for (sim::Pid companion : rs.companions) sim_->kill(companion);
  }
}

void World::retire_on_shard(int shard) {
  sim::Simulator& s = machine_->shard_sim(shard);
  for (int r : shard_ranks_[static_cast<std::size_t>(shard)]) {
    for (sim::Pid companion : ranks_[static_cast<std::size_t>(r)].companions) {
      s.kill(companion);
    }
  }
}

void World::crash(int world_rank) {
  auto& rs = ranks_[static_cast<std::size_t>(world_rank)];
  if (rs.dead) return;
  rs.dead = true;
  sim::Simulator& s = sim_of(world_rank);
  s.kill(rs.pid);
  for (sim::Pid companion : rs.companions) s.kill(companion);
  ++mains_crashed_;
  maybe_retire_companions();
  if (machine_ != nullptr) {
    // The announcement lands at least a window beyond the crash (detection
    // delay >= lookahead), so deferring it to the boundary cannot move it.
    REPMPI_CHECK_MSG(detection_delay_ >= machine_->lookahead(),
                     "sharded run needs detection delay >= lookahead ("
                         << detection_delay_ << " < " << machine_->lookahead()
                         << ")");
    machine_->post_announce(world_rank, s.now() + detection_delay_);
    return;
  }
  sim_->schedule_after(detection_delay_,
                       [this, world_rank] { announce_death(world_rank); });
}

void World::declare_job_failed(int logical, int world_rank, sim::Time t) {
  {
    std::lock_guard<std::mutex> lock(job_mu_);
    // Earliest observation wins, ties broken by world_rank: the reported
    // (time, logical) is the minimum over all declarations, so it cannot
    // depend on which shard worker got here first.
    if (!job_failed_ || t < job_failed_time_ ||
        (t == job_failed_time_ && world_rank < job_failed_rank_)) {
      job_failed_ = true;
      job_failed_time_ = t;
      job_failed_logical_ = logical;
      job_failed_rank_ = world_rank;
    }
  }
  // Every declaration schedules its own abort (kills are idempotent), one
  // detection delay after the observation — by then every shard has passed
  // the observation window, so the control event lands in the future on all
  // of them.
  const sim::Time when = t + detection_delay_;
  if (machine_ != nullptr) {
    REPMPI_CHECK_MSG(detection_delay_ >= machine_->lookahead(),
                     "sharded run needs detection delay >= lookahead");
    machine_->post_abort(when);
    return;
  }
  sim_->schedule_internal_at(when, [this] { abort_on_shard(0); });
}

void World::abort_on_shard(int shard) {
  sim::Simulator& s = machine_ != nullptr ? machine_->shard_sim(shard) : *sim_;
  int newly_dead = 0;
  for (int r : shard_ranks_[static_cast<std::size_t>(shard)]) {
    auto& rs = ranks_[static_cast<std::size_t>(r)];
    if (rs.dead) continue;
    rs.dead = true;
    if (!s.finished(rs.pid)) ++newly_dead;
    s.kill(rs.pid);
    for (sim::Pid companion : rs.companions) s.kill(companion);
  }
  // Killed mains never reach note_main_done; account for them here so
  // companion retirement still triggers once everything has settled.
  if (newly_dead > 0) {
    mains_crashed_ += newly_dead;
    maybe_retire_companions();
  }
}

void World::announce_death(int world_rank) { announce_on_shard(world_rank, 0); }

void World::announce_on_shard(int world_rank, int shard) {
  char& flag = announced_[announced_index(shard, world_rank)];
  if (flag != 0) return;
  flag = 1;
  // Fail every posted receive on this shard's ranks that explicitly awaits
  // the dead rank and cannot be satisfied from already-delivered messages.
  // Victims are pulled from every slot, then failed in post order (seq
  // order), which is independent of the table's iteration order.
  for (int dst_rank : shard_ranks_[static_cast<std::size_t>(shard)]) {
    auto& table = ranks_[static_cast<std::size_t>(dst_rank)].match;
    std::vector<PostedRecv> victims;
    for (auto it = table.map.begin(); it != table.map.end();) {
      auto& posted = it->second.posted;
      for (auto qit = posted.begin(); qit != posted.end();) {
        if (qit->req->match_world_src == world_rank) {
          victims.push_back(std::move(*qit));
          qit = posted.erase(qit);
        } else {
          ++qit;
        }
      }
      it = it->second.drained() ? table.close(it) : std::next(it);
    }
    std::sort(victims.begin(), victims.end(),
              [](const PostedRecv& a, const PostedRecv& b) {
                return a.seq < b.seq;
              });
    for (PostedRecv& v : victims) fail_recv(*v.req);
  }
}

void World::send_bytes(int src_world, int dst_world, std::uint64_t channel,
                       int src_comm_rank, int tag,
                       std::span<const std::byte> bytes) {
  send_payload(src_world, dst_world, channel, src_comm_rank, tag,
               support::Payload(bytes));
}

void World::send_payload(int src_world, int dst_world, std::uint64_t channel,
                         int src_comm_rank, int tag, support::Payload data) {
  REPMPI_CHECK(dst_world >= 0 && dst_world < num_ranks_);
  if (machine_ != nullptr) {
    const int shard = machine_->shard_of(src_world);
    net::Network& snet = machine_->shard_net(shard);
    if (snet.topology().same_node(src_world, dst_world)) {
      // Same node means same shard (shards own whole nodes): the intranode
      // transport has no shared NIC lane state, so the reservation touches
      // only this shard's pair clocks and can happen inline like legacy.
      sim::Simulator& ssim = machine_->shard_sim(shard);
      const sim::Time arrival =
          snet.reserve_transfer(src_world, dst_world, data.size());
      ssim.schedule_at(arrival, [this, dst_world,
                                 key = MatchKey{channel, src_comm_rank, tag},
                                 data = std::move(data)]() mutable {
        deliver(dst_world, key, std::move(data));
      });
      return;
    }
    // Internode: NIC lanes are shared across shards, so the reservation is
    // deferred to the window boundary, where all of a window's internode
    // sends are applied in (t, src, src_seq) order against the single
    // cross-shard network. Senders never observe the arrival time (eager
    // fire-and-forget), so deferral is invisible to virtual time.
    auto& rs = ranks_[static_cast<std::size_t>(src_world)];
    InternodeSend op;
    op.t = machine_->shard_sim(shard).now();
    op.src_world = src_world;
    op.dst_world = dst_world;
    op.channel = channel;
    op.src_comm_rank = src_comm_rank;
    op.tag = tag;
    op.src_seq = rs.next_xsend_seq++;
    op.data = std::move(data);
    machine_->post_internode(std::move(op));
    return;
  }
  const sim::Time arrival =
      net_->reserve_transfer(src_world, dst_world, data.size());
  sim_->schedule_at(arrival, [this, dst_world,
                              key = MatchKey{channel, src_comm_rank, tag},
                              data = std::move(data)]() mutable {
    deliver(dst_world, key, std::move(data));
  });
}

void World::deliver_internode_at(InternodeSend op, sim::Time arrival) {
  const int dst = op.dst_world;
  sim_of(dst).schedule_at(
      arrival, [this, dst, key = MatchKey{op.channel, op.src_comm_rank, op.tag},
                data = std::move(op.data)]() mutable {
        deliver(dst, key, std::move(data));
      });
}

void World::deliver(int dst_world, MatchKey key, support::Payload data) {
  auto& rs = ranks_[static_cast<std::size_t>(dst_world)];
  if (rs.dead) return;  // messages to a crashed process vanish
  auto it = rs.match.map.find(key);
  if (it == rs.match.map.end()) {
    rs.match.insert(key).unexpected.push_back(std::move(data));
    return;
  }
  auto& posted = it->second.posted;
  if (posted.empty()) {
    it->second.unexpected.push_back(std::move(data));
    return;
  }
  // The first-posted receive under this key wins (MPI post-order rule).
  std::shared_ptr<RequestState> req = std::move(posted.front().req);
  posted.pop_front();
  if (posted.empty()) rs.match.close(it);
  complete_recv(*req, std::move(data));
}

void World::complete_recv(RequestState& req, support::Payload data) {
  req.done = true;
  req.status.bytes = data.size();
  req.status.failed = false;
  if (req.sink) {
    REPMPI_CHECK_MSG(data.size() == req.sink->size(),
                     "a " << data.size() << "-byte message for a "
                          << req.sink->size() << "-byte receive sink");
    std::copy_n(data.data(), data.size(), req.sink->data());
  } else {
    req.data = std::move(data);
  }
  // Fused delivery-and-wakeup: the result is deposited above, so a waiter
  // focused on this very request resumes through the scheduler's ready lane
  // (no timed-queue traffic), and a waiter focused on a *different* request
  // is left asleep — it collects this completion from req.done when its own
  // turn comes (fan-in of a wait loop over several requests). Completions
  // always execute on the thread of the destination rank's shard, so the
  // local simulator owns the waiter.
  if (req.owner != sim::kNoPid) local_sim().unpark_hint(req.owner, &req);
}

void World::fail_recv(RequestState& req) {
  req.done = true;
  req.status.failed = true;
  if (req.owner != sim::kNoPid) local_sim().unpark_hint(req.owner, &req);
}

void World::post_recv(int dst_world, int match_world_src,
                      std::shared_ptr<RequestState> req) {
  REPMPI_CHECK_MSG(req->match_source >= 0 && req->match_tag >= 0,
                   "receive key needs a source and a tag >= 0, got source "
                       << req->match_source << ", tag " << req->match_tag);
  auto& rs = ranks_[static_cast<std::size_t>(dst_world)];
  req->match_world_src = match_world_src;
  const MatchKey key{req->comm_channel, req->match_source, req->match_tag};

  // Unexpected queue first, in arrival order (MPI matching rule).
  auto it = rs.match.map.find(key);
  if (it != rs.match.map.end() && !it->second.unexpected.empty()) {
    auto& unexpected = it->second.unexpected;
    support::Payload data = std::move(unexpected.front());
    unexpected.pop_front();
    if (unexpected.empty()) rs.match.close(it);
    complete_recv(*req, std::move(data));
    return;
  }

  // Fail fast when the awaited peer is already known dead (on the calling
  // shard's announced view).
  if (match_world_src != kNoPeer && is_dead(match_world_src)) {
    fail_recv(*req);
    return;
  }

  Slot& slot = it != rs.match.map.end() ? it->second : rs.match.insert(key);
  slot.posted.push_back(PostedRecv{rs.next_post_seq++, std::move(req)});
}

std::size_t World::purge_unexpected(int dst_world, std::uint64_t channel,
                                    int src) {
  auto& table = ranks_[static_cast<std::size_t>(dst_world)].match;
  std::size_t purged = 0;
  for (auto it = table.map.begin(); it != table.map.end();) {
    const auto& [key, slot] = *it;
    if (key.channel == channel && key.src == src && !slot.unexpected.empty()) {
      purged += slot.unexpected.size();
      it = table.close(it);
    } else {
      ++it;
    }
  }
  return purged;
}

}  // namespace repmpi::mpi
