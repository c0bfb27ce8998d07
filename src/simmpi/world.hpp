#pragma once

// MpiWorld: process management plus the message-matching engine.
//
// The world owns one match table per physical rank. Matching is exact-key
// only: a receive names one (channel, source, tag) key, and a message
// matches the receives posted under its own key, first posted first. There
// are no wildcards; send-determinism presumes deterministic matching, and
// a mailbox that any peer writes to (the replication agents' NACKs) is one
// fixed key with the sender in the body. Per-(src,dst) FIFO is guaranteed
// by the network layer.
//
// The table maps each key to a slot of two FIFOs: receives posted under
// the key, in post order, and messages that arrived under it before any
// receive, in arrival order. At most one of them is non-empty (an arrival
// completes the posted front, and a new receive takes the unexpected
// front), so each post and each delivery costs one hash lookup.
//
// Failure signalling: when a rank is declared dead, every posted receive
// that explicitly awaits it completes with status.failed, and later receives
// that explicitly await it fail immediately *unless* an already-delivered
// message is sitting in the unexpected queue (a crashed replica's last
// messages remain consumable — the paper's "some replicas got the update"
// case).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/network.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "simmpi/request.hpp"
#include "simmpi/types.hpp"
#include "support/error.hpp"
#include "support/payload.hpp"

namespace repmpi::mpi {

class Proc;
class Comm;
class ShardedMachine;

/// An internode send deferred to the window boundary of a sharded run. The
/// key (t, src_world, src_seq) totally orders deferred sends independently
/// of the shard layout: t and the per-source counter are functions of the
/// sending rank's (deterministic) execution alone, and src_world breaks
/// cross-rank ties the same way everywhere. Applying the sends in this
/// order against the single cross-shard Network reproduces one global NIC
/// reservation sequence at any shard count.
struct InternodeSend {
  sim::Time t = 0.0;  ///< virtual send instant
  int src_world = 0;
  int dst_world = 0;
  std::uint64_t channel = 0;
  int src_comm_rank = 0;
  int tag = 0;
  std::uint64_t src_seq = 0;  ///< per-source internode send counter
  support::Payload data;
};

/// Run-scoped state of a protocol layer built on a World (the replication
/// layer's send logs and receive floors). The world owns it, so it outlives
/// every rank's stack and is destroyed only after every process unwound.
class LayerState {
 public:
  LayerState() = default;
  LayerState(const LayerState&) = delete;
  LayerState& operator=(const LayerState&) = delete;
  virtual ~LayerState() = default;
  /// Sharded runs: called serially at every window boundary, with every
  /// shard quiescent, so it may touch state owned by any rank.
  virtual void at_boundary() {}
};

/// Per-process metrics: virtual time attributed to named phases by
/// ScopedPhase, collected after the run for bench reporting.
using PhaseTimes = std::map<std::string, double>;

class World {
 public:
  World(sim::Simulator& sim, net::Network& network, int num_ranks);

  /// Sharded world: ranks are spread over the machine's shards, each rank's
  /// process living on its shard's simulator. Cross-shard interactions are
  /// deferred through the machine to its window boundaries; everything else
  /// behaves as the legacy single-simulator constructor.
  World(ShardedMachine& machine, int num_ranks);

  /// Joins all simulated process threads (they may hold references to this
  /// world on their stacks) before the world's state is released. In a
  /// sharded run the engine's workers have already unwound their own
  /// shards' fibers (thread affinity), so this is a no-op there.
  ~World();

  int num_ranks() const { return num_ranks_; }

  /// The simulator owning `world_rank`'s process (its shard's, or the
  /// single one). Spawning a companion for a rank must go through this.
  sim::Simulator& sim_of(int world_rank);

  const net::MachineModel& model() const { return *model_; }

  /// True when the ranks are spread over a sharded engine's threads.
  bool sharded() const { return machine_ != nullptr; }
  int num_shards() const;

  /// The world's layer state, constructed from `args` by the first caller
  /// (a rank fiber on any shard). A world holds one layer's state.
  template <class T, class... Args>
  T& layer_state(Args&&... args) {
    const std::lock_guard<std::mutex> lock(layer_mu_);
    if (!layer_) layer_ = std::make_unique<T>(std::forward<Args>(args)...);
    T* state = dynamic_cast<T*>(layer_.get());
    REPMPI_CHECK_MSG(state != nullptr, "world holds another layer's state");
    return *state;
  }

  /// The layer state, or null when no layer created one. Read it after the
  /// run joins or at a window boundary.
  LayerState* layer() const { return layer_.get(); }

  /// Spawns all ranks; each runs `main_fn` with its own Proc handle. Must be
  /// called exactly once, before Simulator::run().
  void launch(std::function<void(Proc&)> main_fn);

  /// Declares `world_rank` crashed as of the current virtual time: kills the
  /// process and (after the failure-detection delay) fails matching receives
  /// everywhere. In-flight messages it sent are still delivered.
  void crash(int world_rank);

  /// Failure-detection notification delay (virtual seconds). Runs keep the
  /// default; kept as the test hook that drives crash()'s check that the
  /// delay covers the sharded engine's lookahead.
  void set_detection_delay(double d) { detection_delay_ = d; }

  /// Graceful both-replicas-lost degradation: a rank that observes an
  /// unmaskable failure (every replica of logical rank `logical` dead)
  /// reports it here instead of letting the exception escape. The world
  /// records the earliest observation — merged deterministically by
  /// (virtual time, world_rank), independent of host thread order — and
  /// schedules a job abort one detection delay later that kills every
  /// surviving rank, so the run terminates as a *reported* job failure
  /// rather than a deadlock or a stuck-shard diagnosis.
  void declare_job_failed(int logical, int world_rank, sim::Time t);

  /// The abort control event (window-boundary scheduled in sharded runs):
  /// kills the surviving ranks owned by `shard`. Idempotent.
  void abort_on_shard(int shard);

  /// Valid after the run joins.
  bool job_failed() const { return job_failed_; }
  sim::Time job_failed_time() const { return job_failed_time_; }
  int job_failed_logical() const { return job_failed_logical_; }

  bool is_dead(int world_rank) const {
    // Each shard holds its own announced view (the failure detector fires
    // per shard at the same virtual time); readers are always rank fibers,
    // which run on their shard's worker thread.
    return announced_[announced_index(shard_view(), world_rank)] != 0;
  }

  /// True as soon as crash() ran, before the failure detector announces it.
  /// A process uses this on itself during unwind to avoid ghost sends.
  bool crash_pending(int world_rank) const {
    return ranks_[static_cast<std::size_t>(world_rank)].dead;
  }

  sim::Pid pid_of(int world_rank) const {
    return ranks_[static_cast<std::size_t>(world_rank)].pid;
  }

  /// Registers an auxiliary simulated process (e.g., a replication progress
  /// agent) that lives and dies with `world_rank`: crash() kills it too. It
  /// shares the rank's mailbox (it may post receives for that rank).
  void register_companion(int world_rank, sim::Pid pid) {
    ranks_[static_cast<std::size_t>(world_rank)].companions.push_back(pid);
  }

  /// Per-rank phase times, valid after the simulation completes.
  const std::vector<PhaseTimes>& phase_times() const { return phases_; }
  PhaseTimes& phases_of(int world_rank) {
    return phases_[static_cast<std::size_t>(world_rank)];
  }

  // --- Internal API used by Comm (process context) -----------------------

  /// Eager send: captures the bytes into a payload once, then schedules
  /// wire transfer and delivery. The caller has already charged the sender
  /// CPU overhead.
  void send_bytes(int src_world, int dst_world, std::uint64_t channel,
                  int src_comm_rank, int tag, std::span<const std::byte> bytes);

  /// Zero-copy variant: the payload is shared by reference (the replication
  /// layer logs and fans out the same payload to several receivers).
  void send_payload(int src_world, int dst_world, std::uint64_t channel,
                    int src_comm_rank, int tag, support::Payload data);

  /// Posts a receive request for `dst_world` under its exact key (source
  /// and tag >= 0); may complete it immediately from the unexpected queue
  /// or fail it if the awaited peer is dead. match_world_src is the world
  /// rank whose death fails the receive, or kNoPeer.
  void post_recv(int dst_world, int match_world_src,
                 std::shared_ptr<RequestState> req);

  /// Drops queued unexpected messages for `dst_world` on `channel` coming
  /// from comm-rank `src` — used to garbage-collect stale replica updates
  /// after a crash has been handled.
  std::size_t purge_unexpected(int dst_world, std::uint64_t channel, int src);

  // --- Internal API used by the sharded machine (boundary-hook context) ---

  /// Schedules the deferred internode delivery on the destination rank's
  /// shard; `arrival` was reserved against the cross-shard network in the
  /// layout-independent merge order.
  void deliver_internode_at(InternodeSend op, sim::Time arrival);

  /// Applies `world_rank`'s death announcement to `shard`'s view: marks the
  /// per-shard announced flag and fails the shard's matching posted
  /// receives. The legacy announce path is this with one shard owning all
  /// ranks.
  void announce_on_shard(int world_rank, int shard);

  /// Kills the companion processes of the ranks owned by `shard` (runs as a
  /// window-boundary control event once every main settled).
  void retire_on_shard(int shard);

 private:
  struct MatchKey {
    std::uint64_t channel = 0;
    int src = 0;
    int tag = 0;
    bool operator==(const MatchKey&) const = default;
  };

  struct MatchKeyHash {
    std::size_t operator()(const MatchKey& k) const {
      std::uint64_t z =
          k.channel ^
          ((static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.src))
            << 32 |
            static_cast<std::uint32_t>(k.tag)) *
           0x9e3779b97f4a7c15ULL);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return static_cast<std::size_t>(z ^ (z >> 31));
    }
  };

  /// A posted receive with its post-order sequence number.
  struct PostedRecv {
    std::uint64_t seq = 0;
    std::shared_ptr<RequestState> req;
  };

  /// One queue's FIFO: a vector read from `head`. Draining it resets it to
  /// the start of its storage, so a slot that is reused never allocates
  /// again (a std::deque walks off its chunk every few messages). A FIFO
  /// that never drains drops its consumed prefix once that is at least
  /// half the vector, so it holds at most twice its live entries.
  template <class T>
  struct Fifo {
    std::vector<T> items;
    std::size_t head = 0;

    bool empty() const { return head == items.size(); }
    std::size_t size() const { return items.size() - head; }
    T& front() { return items[head]; }
    auto begin() { return items.begin() + static_cast<std::ptrdiff_t>(head); }
    auto end() { return items.end(); }
    void push_back(T v) { items.push_back(std::move(v)); }
    /// Callers move the front entry out first; its husk stays until the
    /// next reset or prefix drop.
    void pop_front() {
      if (++head == items.size()) {
        clear();
      } else if (head >= 32 && 2 * head >= items.size()) {
        items.erase(items.begin(), begin());
        head = 0;
      }
    }
    auto erase(typename std::vector<T>::iterator it) {
      return items.erase(it);
    }
    void clear() {
      items.clear();
      head = 0;
    }
  };

  /// One key's queues: receives posted under it, in post order, and
  /// payloads that arrived under it before any receive, in arrival order.
  /// At most one of the two is non-empty.
  struct Slot {
    Fifo<PostedRecv> posted;
    Fifo<support::Payload> unexpected;
    bool drained() const { return posted.empty() && unexpected.empty(); }
  };

  using SlotMap = std::unordered_map<MatchKey, Slot, MatchKeyHash>;

  /// A rank's match table plus the drained slots it retired. Nearly every
  /// message opens a slot under a fresh key and drains it again, so a
  /// drained slot's hash node — with its FIFOs' storage — is kept (up to
  /// kMaxSpare) and re-keyed by the next new key instead of being freed.
  struct MatchTable {
    static constexpr std::size_t kMaxSpare = 64;
    SlotMap map;
    std::vector<SlotMap::node_type> spare;

    /// A slot for `key`, which the map does not hold, on a recycled node
    /// when there is one.
    Slot& insert(const MatchKey& key) {
      if (spare.empty()) return map[key];
      auto node = std::move(spare.back());
      spare.pop_back();
      node.key() = key;
      return map.insert(std::move(node)).position->second;
    }

    /// Removes the slot at `it` (dropping anything still in it) and returns
    /// the iterator past it.
    SlotMap::iterator close(SlotMap::iterator it) {
      if (spare.size() >= kMaxSpare) return map.erase(it);
      const auto next = std::next(it);
      it->second.posted.clear();
      it->second.unexpected.clear();
      spare.push_back(map.extract(it));
      return next;
    }
  };

  struct RankState {
    sim::Pid pid = sim::kNoPid;
    bool dead = false;  // crash happened (announced view lives in announced_)
    MatchTable match;
    std::uint64_t next_post_seq = 0;
    std::uint64_t next_xsend_seq = 0;  ///< internode send order (sharded)
    std::vector<sim::Pid> companions;
  };

  void deliver(int dst_world, MatchKey key, support::Payload data);
  void complete_recv(RequestState& req, support::Payload data);
  void fail_recv(RequestState& req);
  void announce_death(int world_rank);

  /// Kills all companion processes (progress agents) once every main has
  /// either completed or crashed — after that point no replay can be needed.
  void note_main_done();
  void maybe_retire_companions();

  /// The shard whose slice the calling thread may touch (0 in legacy runs).
  int shard_view() const {
    return machine_ != nullptr ? sim::current_shard() : 0;
  }

  std::size_t announced_index(int shard, int world_rank) const {
    return static_cast<std::size_t>(shard) *
               static_cast<std::size_t>(num_ranks_) +
           static_cast<std::size_t>(world_rank);
  }

  /// Simulator of the shard the calling thread is executing (the one whose
  /// fibers can be unparked right now).
  sim::Simulator& local_sim();

  sim::Simulator* sim_ = nullptr;  ///< legacy single simulator
  net::Network* net_ = nullptr;    ///< legacy single network
  ShardedMachine* machine_ = nullptr;  ///< sharded runs only
  const net::MachineModel* model_ = nullptr;
  int num_ranks_;
  std::vector<RankState> ranks_;
  std::vector<PhaseTimes> phases_;
  /// Per-shard death-announcement views, [shard * num_ranks + rank];
  /// single row in legacy runs.
  std::vector<char> announced_;
  /// Ranks owned by each shard; one all-ranks row in legacy runs.
  std::vector<std::vector<int>> shard_ranks_;
  double detection_delay_ = 50e-6;
  bool launched_ = false;
  std::atomic<int> mains_done_{0};
  std::atomic<int> mains_crashed_{0};

  std::mutex layer_mu_;  ///< guards the creation of layer_
  std::unique_ptr<LayerState> layer_;

  /// Job-failure state: earliest (time, rank) observation wins, merged under
  /// the mutex because declarations may race in from different shard worker
  /// threads within one window. Read only after the run joins.
  std::mutex job_mu_;
  bool job_failed_ = false;
  sim::Time job_failed_time_ = 0.0;
  int job_failed_logical_ = -1;
  int job_failed_rank_ = -1;
};

/// Per-process handle: the rank's simulation context, world communicator and
/// compute-cost charging interface. Passed to every application main.
class Proc {
 public:
  Proc(World& world, sim::Context& ctx, int world_rank)
      : world_(world), ctx_(ctx), world_rank_(world_rank) {}

  World& world() { return world_; }
  sim::Context& context() { return ctx_; }
  int world_rank() const { return world_rank_; }
  sim::Time now() const { return ctx_.now(); }

  /// Charges roofline compute time for the given cost.
  void compute(const net::ComputeCost& cost) {
    ctx_.delay(world_.model().compute_time(cost.flops, cost.mem_bytes));
  }

  /// Charges an explicit duration (e.g., modeled I/O).
  void elapse(double seconds) { ctx_.delay(seconds); }

  /// Accumulates virtual time into a named phase bucket.
  void add_phase_time(const std::string& phase, double dt) {
    world_.phases_of(world_rank_)[phase] += dt;
  }

 private:
  World& world_;
  sim::Context& ctx_;
  int world_rank_;
};

/// RAII phase timer: attributes the enclosed virtual time span to `phase`.
class ScopedPhase {
 public:
  ScopedPhase(Proc& proc, std::string phase)
      : proc_(proc), phase_(std::move(phase)), start_(proc.now()) {}
  ~ScopedPhase() { proc_.add_phase_time(phase_, proc_.now() - start_); }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Proc& proc_;
  std::string phase_;
  sim::Time start_;
};

}  // namespace repmpi::mpi
