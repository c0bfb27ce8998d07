#pragma once

// Replica-compute sharing: dedupe redundant kernel execution on the host.
//
// The paper's replication protocol makes every replica of a logical rank
// execute the same deterministic computation. The *simulated* cost of that
// redundancy is the object of study and must never change — but the *host*
// pays for it too: at replication degree d, every kernel section that is not
// intra-parallelized is executed d times with bit-identical inputs and
// outputs. This layer computes each such section once per logical rank and
// hands the sibling replicas a copy of the output bytes, while still
// charging every replica the full simulated cost:
//
//  * keying is by deterministic lineage, never by hashing array contents:
//    (logical rank, per-client step counter, phase tag). Replicas run
//    identical code, so the k-th shared region a replica reaches is the
//    k-th region its siblings reach — the counter IS the identity;
//  * the first replica to reach a region computes it and publishes the
//    output buffers (one refcount-free copy into the per-run cache);
//    siblings memcpy the bytes out and charge the stored simulated cost,
//    so virtual-time results, efficiencies, phase times, event/message
//    counts and determinism fingerprints are bit-identical to unshared
//    execution (each original `compute(cost)` call site still performs
//    exactly one `compute` with exactly the same cost value);
//  * entries are erased as soon as every sibling consumed them (degree - 1
//    consumers), with a byte-capped FIFO as backstop for a producer that
//    runs far ahead of a lagging sibling;
//  * every decision is a pure function of the run's configuration and each
//    region's modelled cost: the cache reads no clock, so which regions are
//    published — and with it every stat — is the same on any host. Runs with
//    a fault plan never get a cache (crash and SDC rules count real
//    executions and corrupted replicas diverge), nor do runs in SDC-verify
//    mode (kReplicatedVerify), whose purpose is duplicate execution;
//  * REPMPI_VERIFY_SHARED_COMPUTE=1 turns every hit into a
//    recompute-and-compare: the region executes anyway and the result must
//    match the cached bytes and cost bit for bit (test/CI mode; catches any
//    region whose lineage key is not actually deterministic).
//
// Threading: a ComputeCache belongs to one simulation run and is touched
// only by that run's fibers, which all live on one OS thread (the
// simulator's thread-confinement contract) — so the cache needs no lock.
// The process-wide totals below are thread-local, mirroring
// sim::substrate_totals(): each cache adds its stats to its own thread's
// totals when it is destroyed.
//
// This header also provides FifoMemo, the generic mutex-protected FIFO
// memo used by the *cross-run* kernel caches (grid matrices, particle
// populations): O(1) hash lookup, build-outside-the-lock with a dup-insert
// re-check, bounded FIFO eviction — one eviction policy and one mutex
// discipline instead of hand-rolled linear-scan deques.

#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/machine_model.hpp"
#include "support/buffer.hpp"
#include "support/error.hpp"

namespace repmpi::support {

// ---------------------------------------------------------------------------
// FifoMemo — generic bounded memo for immutable, shareable build products.
// ---------------------------------------------------------------------------

/// Combines hashes (boost-style); call-site hashers for composite keys.
inline std::size_t hash_combine(std::size_t seed, std::size_t v) {
  return seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// Non-owning reference to a callable returning net::ComputeCost — the
/// shared-region callback travels through the cache without the type
/// erasure (and per-call allocation) a std::function would cost on the
/// hot path.
class ComputeFnRef {
 public:
  template <typename Fn,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<Fn>, ComputeFnRef>>>
  ComputeFnRef(Fn&& fn)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(&fn))),
        call_([](void* obj) -> net::ComputeCost {
          return (*static_cast<std::remove_reference_t<Fn>*>(obj))();
        }) {}

  net::ComputeCost operator()() const { return call_(obj_); }

 private:
  void* obj_;
  net::ComputeCost (*call_)(void*);
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FifoMemo {
 public:
  explicit FifoMemo(std::size_t max_entries) : max_entries_(max_entries) {}

  FifoMemo(const FifoMemo&) = delete;
  FifoMemo& operator=(const FifoMemo&) = delete;

  /// Returns the memoized value for `key`, building it with `build` on a
  /// miss. The build runs outside the lock (it may be expensive); when
  /// concurrent simulations race to build the same key, the first insert
  /// wins and every caller shares that one immutable instance — duplicates
  /// are discarded rather than inserted, so they can never evict live
  /// entries.
  template <typename Build>
  std::shared_ptr<const Value> get_or_build(const Key& key, Build&& build) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (const auto it = map_.find(key); it != map_.end()) return it->second;
    }
    std::shared_ptr<const Value> built = build();
    std::lock_guard<std::mutex> lk(mu_);
    if (const auto it = map_.find(key); it != map_.end()) return it->second;
    map_.emplace(key, built);
    fifo_.push_back(key);
    if (fifo_.size() > max_entries_) {
      map_.erase(fifo_.front());
      fifo_.pop_front();
    }
    return built;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.size();
  }

 private:
  mutable std::mutex mu_;
  std::size_t max_entries_;
  std::unordered_map<Key, std::shared_ptr<const Value>, Hash> map_;
  std::deque<Key> fifo_;  // insertion order, oldest at the front
};

// ---------------------------------------------------------------------------
// ComputeCache — per-run replica-compute sharing.
// ---------------------------------------------------------------------------

struct ComputeCacheStats {
  std::uint64_t hits = 0;        ///< regions served from a sibling's result
  std::uint64_t misses = 0;      ///< regions computed (and published)
  std::uint64_t bypasses = 0;    ///< always 0 (nothing bypasses the cache)
  std::uint64_t evictions = 0;   ///< entries dropped by the byte cap
  std::uint64_t shared_bytes = 0;  ///< output bytes served from the cache
  std::uint64_t uncached = 0;    ///< publishes skipped (recompute < memcpy)
};

/// Thread-local process-wide totals across every ComputeCache that lived on
/// the calling thread (deposited by the cache destructor). Same contract as
/// sim::substrate_totals(): a bench runs on one worker thread, so its
/// before/after delta is exact.
ComputeCacheStats compute_cache_totals();

class ComputeCache {
 public:
  /// Default byte cap for pending (not-yet-consumed) output copies. Entries
  /// normally die as soon as all siblings consumed them; the cap only
  /// matters when a producer runs far ahead of a lagging sibling.
  static constexpr std::size_t kDefaultMaxBytes = 128u << 20;

  explicit ComputeCache(int degree, std::size_t max_bytes = kDefaultMaxBytes);
  ~ComputeCache();  ///< deposits stats into the thread-local totals

  ComputeCache(const ComputeCache&) = delete;
  ComputeCache& operator=(const ComputeCache&) = delete;

  int degree() const { return degree_; }
  const ComputeCacheStats& stats() const { return stats_; }
  std::size_t pending_entries() const { return map_.size(); }
  std::size_t pending_bytes() const { return total_bytes_; }
  bool verify_mode() const { return verify_; }

  /// True when REPMPI_NO_SHARED_COMPUTE is set (A/B measurement switch);
  /// the runner then skips cache creation entirely.
  static bool disabled_by_env() { return env_flag("REPMPI_NO_SHARED_COMPUTE"); }

 private:
  friend class ComputeClient;

  struct Key {
    int logical = 0;
    std::uint64_t step = 0;
    std::uint64_t phase = 0;  ///< FNV-1a of the phase tag
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      std::size_t h = std::hash<std::uint64_t>{}(k.step * 0x9e3779b97f4a7c15ULL);
      h = hash_combine(h, std::hash<int>{}(k.logical));
      return hash_combine(h, std::hash<std::uint64_t>{}(k.phase));
    }
  };
  struct Entry {
    std::vector<Buffer> outputs;  ///< one copy per output span
    net::ComputeCost cost;        ///< simulated cost every replica charges
    int consumers_left = 0;       ///< siblings still expected to hit
    std::size_t bytes = 0;
    std::list<Key>::iterator fifo_it;
  };

  static bool env_flag(const char* name) {
    const char* v = std::getenv(name);
    return v != nullptr && *v != '\0' && std::string_view(v) != "0";
  }

  static std::uint64_t fnv1a(std::string_view s) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : s) {
      h ^= static_cast<std::uint8_t>(c);
      h *= 0x100000001b3ULL;
    }
    return h;
  }

  net::ComputeCost lookup(int logical, std::uint64_t step,
                          std::string_view phase,
                          std::span<const std::span<std::byte>> outs,
                          ComputeFnRef compute);
  /// Cost-aware publish decision. Sharing a region costs one copy into the
  /// cache plus one copy per consuming sibling; skipping costs each sibling
  /// a recompute instead. A region publishes when it does at least one
  /// modelled flop per output byte: that keeps SpMV (1.75 flops/B at 7
  /// points, 6.75 at 27) and stencil27 (3.75), and drops the memory-bound
  /// vector family (waxpby 0.25), whose recompute is cheaper than two
  /// copies of its output. Regions below kMinAdaptiveBytes always publish:
  /// their copies are cheap whatever the kernel. Either outcome is safe — a
  /// sibling that misses recomputes bit-identical bytes and charges the
  /// identical simulated cost.
  static bool worth_publishing(const net::ComputeCost& cost,
                               std::size_t bytes);
  static constexpr std::size_t kMinAdaptiveBytes = 64u << 10;
  using Map = std::unordered_map<Key, Entry, KeyHash>;

  void insert(const Key& key, std::span<const std::span<std::byte>> outs,
              const net::ComputeCost& cost);
  void erase(Map::iterator it);

  /// Recycled entry buffers. Entries churn at steady state (insert on miss,
  /// erase once every sibling consumed), and their outputs are MB-scale
  /// vectors — allocating each one fresh costs an mmap round-trip plus
  /// page-in on every publish. Reusing a retired entry's buffer turns the
  /// publish into a plain memcpy onto warm pages.
  static constexpr std::size_t kMaxPooledBuffers = 16;
  static constexpr std::size_t kMaxPooledCapacity = 8u << 20;
  Buffer acquire_buffer();
  void release_buffer(Buffer&& b);

  int degree_;
  std::size_t max_bytes_;
  bool verify_;
  ComputeCacheStats stats_;
  std::vector<Buffer> buffer_pool_;
  Map map_;
  std::list<Key> fifo_;  ///< insertion order for the byte-cap backstop
  /// Retired entries' map nodes (each keeping its outputs vector's
  /// capacity) and FIFO list nodes, re-keyed by the next inserts, so a
  /// steady-state publish allocates nothing. Bounded by kMaxSpareEntries.
  static constexpr std::size_t kMaxSpareEntries = 64;
  std::vector<Map::node_type> spare_entries_;
  std::list<Key> spare_fifo_;
  std::size_t total_bytes_ = 0;
};

/// Per-physical-rank handle onto a run's ComputeCache. Carries the rank's
/// deterministic step counter: every replica of a logical rank advances it
/// through the identical sequence of shared() calls, which is what makes
/// (logical, step, phase) a sound identity for "the same computation".
/// Default-constructed clients are inert (native runs, degree 1): shared()
/// just executes the callback.
class ComputeClient {
 public:
  ComputeClient() = default;
  ComputeClient(ComputeCache* cache, int logical)
      : cache_(cache), logical_(logical) {}

  bool active() const { return cache_ != nullptr; }

  /// Executes (or shares) one deterministic compute region. `outs` lists
  /// every byte range the region writes; `compute` must fill exactly those
  /// ranges and return the region's simulated cost. The callback must not
  /// communicate, draw from an RNG stream, or have side effects outside
  /// `outs` that later code observes — those would escape the sharing.
  /// Returns the cost the caller charges (identical on hit and miss).
  net::ComputeCost shared(std::string_view phase,
                          std::span<const std::span<std::byte>> outs,
                          ComputeFnRef compute) {
    if (cache_ == nullptr) return compute();
    return cache_->lookup(logical_, next_step_++, phase, outs, compute);
  }

  net::ComputeCost shared(std::string_view phase,
                          std::initializer_list<std::span<std::byte>> outs,
                          ComputeFnRef compute) {
    return shared(phase,
                  std::span<const std::span<std::byte>>(outs.begin(),
                                                        outs.size()),
                  compute);
  }

 private:
  ComputeCache* cache_ = nullptr;
  int logical_ = 0;
  std::uint64_t next_step_ = 0;
};

}  // namespace repmpi::support
