// Equivalence tests for rep::StreamTable, the replication protocol's
// stream-record table: random operation sequences must read exactly like a
// plain std::map that never erases, in which a settled key simply keeps the
// settled value, while the table holds only the keys not settled.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "replication/stream_table.hpp"
#include "support/rng.hpp"

namespace repmpi::rep {
namespace {

struct Rec {
  std::uint64_t a = 0;
  std::int32_t b = -1;
  bool operator==(const Rec&) const = default;
};
constexpr Rec kSettled{1, -1};

using Table = StreamTable<Rec>;
using Key = Table::Key;

Key key(std::uint32_t peer, std::uint32_t tag) {
  return (static_cast<Key>(peer) << 32) | tag;
}

/// The table under test beside its reference: `ref` holds every opened key
/// with its value, `settled` the keys a settle() dropped from the array and
/// no later access put back.
struct Harness {
  Table table{kSettled};
  std::map<Key, Rec> ref;
  std::set<Key> settled;

  void open(Key k) {
    if (ref.emplace(k, Rec{}).second) return;
    settled.erase(k);
  }

  /// Every key of `keys` reads as in the reference; the counts match.
  void check(const std::vector<Key>& keys, const std::string& at) const {
    for (Key k : keys) {
      const Rec* r = table.find(k);
      const auto it = ref.find(k);
      if (it == ref.end()) {
        ASSERT_EQ(r, nullptr) << at << ", key " << k;
      } else {
        ASSERT_NE(r, nullptr) << at << ", key " << k;
        ASSERT_EQ(*r, it->second) << at << ", key " << k;
      }
    }
    ASSERT_EQ(table.opened(), ref.size()) << at;
    ASSERT_EQ(table.held(), ref.size() - settled.size()) << at;
  }

  /// One random operation on a key drawn from `keys`.
  void step(support::Rng& rng, const std::vector<Key>& keys) {
    const Key k = keys[rng.next_u64() % keys.size()];
    switch (rng.next_u64() % 5) {
      case 0: {  // const find
        const Table& t = table;
        const Rec* r = t.find(k);
        EXPECT_EQ(r != nullptr, ref.contains(k));
        break;
      }
      case 1: {  // mutable find: an opened key is held afterwards
        Rec* r = table.find(k);
        ASSERT_EQ(r != nullptr, ref.contains(k));
        if (r == nullptr) break;
        open(k);
        if (rng.next_u64() % 2 == 0) {
          r->b = static_cast<std::int32_t>(rng.next_u64() % 2) - 1;
          ref[k] = *r;
        }
        break;
      }
      case 2:  // operator[]: opens a new key value-initialised
        open(k);
        ASSERT_EQ(table[k], ref[k]);
        break;
      case 3: {  // mutate, often into the settled value
        open(k);
        Rec& r = table[k];
        r.a = rng.next_u64() % 3;
        r.b = rng.next_u64() % 4 == 0 ? 7 : -1;
        ref[k] = r;
        break;
      }
      default:  // settle: drops the record only if it holds the settled value
        table.settle(k);
        if (const auto it = ref.find(k); it != ref.end() && it->second == kSettled)
          settled.insert(k);
        break;
    }
  }
};

/// `n` keys whose home slot in `h`'s 64-slot array is `slot`.
std::vector<Key> keys_homed_at(const Harness& h, std::size_t slot, int n,
                               std::uint32_t peer) {
  std::vector<Key> out;
  for (std::uint32_t tag = 0; static_cast<int>(out.size()) < n; ++tag) {
    if (h.table.home(key(peer, tag)) == slot) out.push_back(key(peer, tag));
  }
  return out;
}

TEST(StreamTable, EraseWrapsAroundTheArrayEnd) {
  // Three keys homed at the last slot fill slots 63, 0 and 1; a key homed
  // at 0 lands in slot 2. Settling the keys one by one must shift each run
  // back across the array end without losing or misplacing a key.
  Harness h;
  h.open(key(9, 9));
  h.table[key(9, 9)];
  ASSERT_EQ(h.table.capacity(), 64u);
  std::vector<Key> keys = keys_homed_at(h, 63, 3, 1);
  const std::vector<Key> at0 = keys_homed_at(h, 0, 2, 2);
  keys.insert(keys.end(), at0.begin(), at0.end());
  keys.push_back(key(9, 9));
  for (Key k : keys) {
    h.open(k);
    h.table[k] = kSettled;
    h.ref[k] = kSettled;
  }
  h.check(keys, "filled");
  for (Key k : keys) {
    h.table.settle(k);
    h.settled.insert(k);
    h.check(keys, "settled " + std::to_string(k));
  }
  EXPECT_EQ(h.table.held(), 0u);
  for (Key k : keys) {  // reopening puts each settled value back
    h.open(k);
    EXPECT_EQ(h.table[k], kSettled);
    h.check(keys, "reopened " + std::to_string(k));
  }
  EXPECT_EQ(h.table.capacity(), 64u);
}

TEST(StreamTable, RandomOpsMatchAMapThatNeverErases) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    support::Rng rng(seed);
    Harness h;
    h.open(key(9, 9));
    h.table[key(9, 9)];
    // Phase 1 keeps to few keys in colliding runs at both ends of the
    // 64-slot array, so erasures shift records across the wrap.
    std::vector<Key> keys{key(9, 9)};
    for (std::size_t slot : {62u, 63u, 0u, 1u}) {
      const std::vector<Key> run =
          keys_homed_at(h, slot, 4, static_cast<std::uint32_t>(slot % 7));
      keys.insert(keys.end(), run.begin(), run.end());
    }
    const std::string at = "seed " + std::to_string(seed);
    for (int i = 0; i < 1500; ++i) {
      h.step(rng, keys);
      h.check(keys, at + ", phase 1 op " + std::to_string(i));
      ASSERT_EQ(h.table.capacity(), 64u) << at;
    }
    // Phase 2 adds runs of consecutive tags on a few peers (many keys per
    // settled word) until the array has to grow.
    for (std::uint32_t peer = 0; peer < 4; ++peer)
      for (std::uint32_t tag = 40; tag < 100; ++tag)
        keys.push_back(key(peer, tag));
    for (int i = 0; i < 3000; ++i) {
      h.step(rng, keys);
      h.check(keys, at + ", phase 2 op " + std::to_string(i));
    }
    EXPECT_GT(h.table.capacity(), 64u) << at;
    EXPECT_GT(h.settled.size(), 0u) << at;
  }
}

}  // namespace
}  // namespace repmpi::rep
