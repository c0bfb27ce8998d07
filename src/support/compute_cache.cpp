#include "support/compute_cache.hpp"

#include <cstring>

namespace repmpi::support {

namespace {
thread_local ComputeCacheStats g_totals;

void add_compute_cache_totals(const ComputeCacheStats& s) {
  g_totals.hits += s.hits;
  g_totals.misses += s.misses;
  g_totals.bypasses += s.bypasses;
  g_totals.evictions += s.evictions;
  g_totals.shared_bytes += s.shared_bytes;
  g_totals.uncached += s.uncached;
}
}  // namespace

ComputeCacheStats compute_cache_totals() { return g_totals; }

bool ComputeCache::worth_publishing(const net::ComputeCost& cost,
                                    std::size_t bytes) {
  return bytes < kMinAdaptiveBytes ||
         cost.flops >= static_cast<double>(bytes);
}

ComputeCache::ComputeCache(int degree, std::size_t max_bytes)
    : degree_(degree),
      max_bytes_(max_bytes),
      verify_(env_flag("REPMPI_VERIFY_SHARED_COMPUTE")) {
  REPMPI_CHECK(degree >= 1);
}

ComputeCache::~ComputeCache() { add_compute_cache_totals(stats_); }

Buffer ComputeCache::acquire_buffer() {
  if (buffer_pool_.empty()) return Buffer{};
  Buffer b = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  return b;
}

void ComputeCache::release_buffer(Buffer&& b) {
  if (buffer_pool_.size() < kMaxPooledBuffers &&
      b.capacity() <= kMaxPooledCapacity) {
    b.clear();  // keeps capacity (and its already-faulted pages)
    buffer_pool_.push_back(std::move(b));
  }
}

void ComputeCache::erase(Map::iterator it) {
  Entry& e = it->second;
  total_bytes_ -= e.bytes;
  for (Buffer& b : e.outputs) release_buffer(std::move(b));
  e.outputs.clear();  // keeps capacity
  if (spare_entries_.size() < kMaxSpareEntries) {
    spare_fifo_.splice(spare_fifo_.end(), fifo_, e.fifo_it);
    spare_entries_.push_back(map_.extract(it));
  } else {
    fifo_.erase(e.fifo_it);
    map_.erase(it);
  }
}

void ComputeCache::insert(const Key& key,
                          std::span<const std::span<std::byte>> outs,
                          const net::ComputeCost& cost) {
  Entry* e = nullptr;
  if (spare_entries_.empty()) {
    e = &map_.try_emplace(key).first->second;
    fifo_.push_back(key);
  } else {
    Map::node_type node = std::move(spare_entries_.back());
    spare_entries_.pop_back();
    node.key() = key;
    e = &map_.insert(std::move(node)).position->second;
    spare_fifo_.front() = key;
    fifo_.splice(fifo_.end(), spare_fifo_, spare_fifo_.begin());
  }
  e->cost = cost;
  e->consumers_left = degree_ - 1;
  e->bytes = 0;
  for (const auto& s : outs) {
    Buffer b = acquire_buffer();
    b.assign(s.begin(), s.end());
    e->outputs.push_back(std::move(b));
    e->bytes += s.size();
  }
  total_bytes_ += e->bytes;
  e->fifo_it = std::prev(fifo_.end());
  // Byte-cap backstop: oldest pending entries go first. Evicted entries
  // simply miss again on the lagging sibling (it recomputes) — correctness
  // never depends on residency.
  while (total_bytes_ > max_bytes_ && !fifo_.empty()) {
    const auto victim = map_.find(fifo_.front());
    REPMPI_CHECK(victim != map_.end());
    erase(victim);
    ++stats_.evictions;
  }
}

net::ComputeCost ComputeCache::lookup(
    int logical, std::uint64_t step, std::string_view phase,
    std::span<const std::span<std::byte>> outs, ComputeFnRef compute) {
  const Key key{logical, step, fnv1a(phase)};
  const auto it = map_.find(key);
  if (it == map_.end()) {
    const net::ComputeCost cost = compute();
    ++stats_.misses;
    std::size_t bytes = 0;
    for (const auto& s : outs) bytes += s.size();
    if (worth_publishing(cost, bytes)) {
      insert(key, outs, cost);
    } else {
      ++stats_.uncached;
    }
    return cost;
  }

  Entry& e = it->second;
  REPMPI_CHECK_MSG(e.outputs.size() == outs.size(),
                   "shared-compute lineage mismatch at logical "
                       << logical << " step " << step << " phase '" << phase
                       << "': " << e.outputs.size() << " cached outputs vs "
                       << outs.size() << " requested");
  for (std::size_t i = 0; i < outs.size(); ++i) {
    REPMPI_CHECK_MSG(e.outputs[i].size() == outs[i].size(),
                     "shared-compute output size mismatch at logical "
                         << logical << " step " << step << " phase '" << phase
                         << "' output " << i << ": cached "
                         << e.outputs[i].size() << " B vs requested "
                         << outs[i].size() << " B");
  }
  if (verify_) {
    // Recompute-and-compare: the sibling executes for real and the result
    // must match the published bytes and cost exactly.
    const net::ComputeCost cost = compute();
    REPMPI_CHECK_MSG(cost.flops == e.cost.flops &&
                         cost.mem_bytes == e.cost.mem_bytes,
                     "shared-compute cost divergence at logical "
                         << logical << " step " << step << " phase '" << phase
                         << "'");
    for (std::size_t i = 0; i < outs.size(); ++i) {
      REPMPI_CHECK_MSG(
          outs[i].empty() || std::memcmp(outs[i].data(), e.outputs[i].data(),
                                         outs[i].size()) == 0,
          "shared-compute output divergence at logical "
              << logical << " step " << step << " phase '" << phase
              << "' output " << i);
    }
  } else {
    for (std::size_t i = 0; i < outs.size(); ++i) {
      if (!outs[i].empty())
        std::memcpy(outs[i].data(), e.outputs[i].data(), outs[i].size());
    }
  }
  ++stats_.hits;
  stats_.shared_bytes += e.bytes;
  const net::ComputeCost cost = e.cost;
  if (--e.consumers_left <= 0) erase(it);
  return cost;
}

}  // namespace repmpi::support
