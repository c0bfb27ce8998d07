// Concurrent-scenario regression: independent Simulators on separate OS
// threads must neither race (ThreadSanitizer job runs exactly this binary)
// nor perturb each other's virtual-time results. Covers the four pieces of
// instance/thread-local substrate state: the fiber scheduler + stack pool,
// the thread-local substrate totals, the thread-local Payload buffer pool,
// and the mutex-guarded kernel memo caches reached through full app runs.

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <latch>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "apps/hpccg.hpp"
#include "apps/runner.hpp"
#include "net/network.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/request.hpp"
#include "simmpi/world.hpp"
#include "support/compute_cache.hpp"
#include "support/payload.hpp"
#include "support/task_pool.hpp"

namespace repmpi {
namespace {

// ---------------------------------------------------------------------------
// Same scenario, one thread vs. four concurrent threads: bit-identical.
// ---------------------------------------------------------------------------

apps::RunResult run_scenario(apps::RunMode mode, std::uint64_t seed) {
  apps::RunConfig cfg;
  cfg.mode = mode;
  cfg.num_logical = 4;
  cfg.seed = seed;
  apps::HpccgParams p;
  p.nx = p.ny = p.nz = 10;
  p.iterations = 2;
  p.intra_ddot = true;
  p.intra_sparsemv = true;
  return apps::run_app(cfg, [&](apps::AppContext& ctx) {
    const double jitter = ctx.rng.uniform(0.5, 1.5);
    {
      mpi::ScopedPhase sp(ctx.proc, "seeded_warmup");
      ctx.proc.compute({1e4 * jitter, 8e4 * jitter});
    }
    apps::hpccg(ctx, p);
  });
}

void expect_bit_identical(const apps::RunResult& a, const apps::RunResult& b) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.wallclock),
            std::bit_cast<std::uint64_t>(b.wallclock));
  ASSERT_EQ(a.phase_max.size(), b.phase_max.size());
  for (const auto& [phase, t] : a.phase_max) {
    ASSERT_EQ(b.phase_max.count(phase), 1u) << phase;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(t),
              std::bit_cast<std::uint64_t>(b.phase_max.at(phase)))
        << phase;
  }
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.intra_total.tasks_executed, b.intra_total.tasks_executed);
  EXPECT_EQ(a.intra_total.update_bytes_sent, b.intra_total.update_bytes_sent);
}

TEST(ConcurrentSims, SameScenarioBitIdenticalOnFourThreads) {
  for (const apps::RunMode mode :
       {apps::RunMode::kNative, apps::RunMode::kReplicated,
        apps::RunMode::kIntra}) {
    const apps::RunResult serial = run_scenario(mode, 0xfeedULL);

    constexpr int kThreads = 4;
    std::vector<apps::RunResult> results(kThreads);
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back(
          [&results, mode, i] { results[static_cast<std::size_t>(i)] =
                                    run_scenario(mode, 0xfeedULL); });
    }
    for (std::thread& t : threads) t.join();
    for (const apps::RunResult& r : results) expect_bit_identical(serial, r);
  }
}

TEST(ConcurrentSims, DistinctScenariosMatchTheirSerialRuns) {
  // Four *different* scenarios concurrently: no cross-talk through the
  // kernel caches, payload pools, or counters.
  struct Case {
    apps::RunMode mode;
    std::uint64_t seed;
  };
  const Case cases[] = {{apps::RunMode::kNative, 1},
                        {apps::RunMode::kReplicated, 2},
                        {apps::RunMode::kIntra, 3},
                        {apps::RunMode::kIntra, 4}};

  apps::RunResult serial[4];
  for (int i = 0; i < 4; ++i)
    serial[i] = run_scenario(cases[i].mode, cases[i].seed);

  apps::RunResult parallel[4];
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&, i] {
      parallel[i] = run_scenario(cases[i].mode, cases[i].seed);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < 4; ++i) expect_bit_identical(serial[i], parallel[i]);
}

// ---------------------------------------------------------------------------
// Sharded engines nested under concurrent outer threads.
// ---------------------------------------------------------------------------

apps::RunResult run_sharded_scenario(int shards, std::uint64_t seed) {
  apps::RunConfig cfg;
  cfg.mode = apps::RunMode::kReplicated;
  cfg.num_logical = 4;
  cfg.seed = seed;
  cfg.shards = shards;
  apps::HpccgParams p;
  p.nx = p.ny = p.nz = 10;
  p.iterations = 2;
  return apps::run_app(cfg, [&](apps::AppContext& ctx) {
    const double jitter = ctx.rng.uniform(0.5, 1.5);
    {
      mpi::ScopedPhase sp(ctx.proc, "seeded_warmup");
      ctx.proc.compute({1e4 * jitter, 8e4 * jitter});
    }
    apps::hpccg(ctx, p);
  });
}

TEST(ConcurrentSims, ShardedRunsBitIdenticalOnConcurrentThreads) {
  // Two levels of host parallelism at once: each outer thread drives its own
  // ShardedEngine (which spawns shard workers of its own). Engines must not
  // cross-talk — the TSan job runs exactly this — and each concurrent
  // sharded run must match the serial sharded run bit-for-bit.
  const apps::RunResult serial = run_sharded_scenario(2, 0xfeedULL);
  EXPECT_GT(serial.shard_windows, 0u);

  constexpr int kThreads = 3;
  apps::RunResult results[kThreads];
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    // Mixed shard counts across the outer threads: results are shard-count
    // invariant, so all must still equal the serial run.
    threads.emplace_back([&results, i] {
      results[i] = run_sharded_scenario(i + 1, 0xfeedULL);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    expect_bit_identical(serial, results[i]);
    EXPECT_EQ(results[i].events, serial.events);
  }
}

// ---------------------------------------------------------------------------
// Determinism fingerprints (context-switch traces) across threads.
// ---------------------------------------------------------------------------

std::uint64_t switch_fingerprint() {
  sim::Simulator sim;
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  sim.set_switch_hook([&hash](sim::Pid pid, sim::Time t) {
    const auto mix = [&hash](std::uint64_t v) {
      hash = (hash ^ v) * 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(pid));
    mix(std::bit_cast<std::uint64_t>(t));
  });
  net::Network network(sim, net::MachineModel{}, net::Topology(4, 4));
  mpi::World world(sim, network, 4);
  world.launch([](mpi::Proc& proc) {
    mpi::Comm comm = mpi::Comm::world(proc);
    const int rank = comm.rank();
    for (int i = 0; i < 50; ++i) {
      comm.send_value((rank + 1) % comm.size(), 9, rank * 1000 + i);
      (void)comm.recv_value<int>((rank + comm.size() - 1) % comm.size(), 9);
    }
  });
  sim.run();
  return hash;
}

TEST(ConcurrentSims, ReplicaComputeSharingIsConfinedPerRun) {
  // Each degree-2 run owns its ComputeCache; concurrent runs must neither
  // race (this binary is the TSan job) nor leak hits across threads, and
  // the thread-local sharing totals must see exactly this thread's runs.
  const apps::RunResult serial = run_scenario(apps::RunMode::kReplicated, 77);
  ASSERT_GT(serial.compute_cache.hits, 0u);

  constexpr int kThreads = 4;
  apps::RunResult results[kThreads];
  support::ComputeCacheStats deltas[kThreads];
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      const support::ComputeCacheStats before =
          support::compute_cache_totals();
      results[i] = run_scenario(apps::RunMode::kReplicated, 77);
      const support::ComputeCacheStats after = support::compute_cache_totals();
      deltas[i] = {after.hits - before.hits, after.misses - before.misses,
                   after.bypasses - before.bypasses,
                   after.evictions - before.evictions,
                   after.shared_bytes - before.shared_bytes};
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    expect_bit_identical(serial, results[i]);
    // Hit/miss sequences are deterministic per run and thread-confined:
    // every thread sees exactly its own run's counts.
    EXPECT_EQ(results[i].compute_cache.hits, serial.compute_cache.hits);
    EXPECT_EQ(results[i].compute_cache.misses, serial.compute_cache.misses);
    EXPECT_EQ(deltas[i].hits, serial.compute_cache.hits);
    EXPECT_EQ(deltas[i].misses, serial.compute_cache.misses);
  }
}

TEST(ConcurrentSims, SwitchFingerprintsIdenticalAcrossThreads) {
  const std::uint64_t reference = switch_fingerprint();
  std::uint64_t got[4] = {};
  std::vector<std::thread> threads;
  for (int i = 0; i < 4; ++i)
    threads.emplace_back([&got, i] { got[i] = switch_fingerprint(); });
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < 4; ++i) EXPECT_EQ(reference, got[i]) << i;
}

// ---------------------------------------------------------------------------
// Instance-local counters and thread-local totals.
// ---------------------------------------------------------------------------

TEST(SubstrateTotals, InstanceSnapshotCoversEventsAndMessages) {
  sim::Simulator sim;
  std::uint64_t net_messages = 0;
  {
    net::Network network(sim, net::MachineModel{}, net::Topology(2, 4));
    mpi::World world(sim, network, 2);
    world.launch([](mpi::Proc& proc) {
      mpi::Comm comm = mpi::Comm::world(proc);
      if (comm.rank() == 0) {
        for (int i = 0; i < 32; ++i) comm.send_value(1, 7, i);
      } else {
        for (int i = 0; i < 32; ++i) (void)comm.recv_value<int>(0, 7);
      }
    });
    sim.run();
    net_messages = network.stats().messages;
    // World must unwind its fibers before the network goes away.
  }
  const sim::SubstrateTotals c = sim.counters();
  EXPECT_EQ(c.events, sim.events_executed());
  EXPECT_GT(c.events, 0u);
  EXPECT_EQ(c.messages, net_messages);
  EXPECT_GT(c.messages, 0u);
  EXPECT_GT(c.stacks_allocated, 0u);
}

TEST(SubstrateTotals, TotalsAreThreadLocal) {
  const sim::SubstrateTotals before = sim::substrate_totals();
  (void)switch_fingerprint();  // a full sim on this thread
  const sim::SubstrateTotals after = sim::substrate_totals();
  EXPECT_GT(after.events, before.events);
  EXPECT_GT(after.messages, before.messages);

  // A fresh thread starts from zero — our run is invisible to it.
  std::thread([] {
    const sim::SubstrateTotals other = sim::substrate_totals();
    EXPECT_EQ(other.events, 0u);
    EXPECT_EQ(other.messages, 0u);
  }).join();
}

TEST(SubstrateTotals, InstanceSnapshotFlushesIntoTheThreadTotals) {
  // The thread totals are the instance snapshots summed: a run adds exactly
  // its simulator's counters, every field included.
  const sim::SubstrateTotals before = sim::substrate_totals();
  sim::SubstrateTotals snap;
  {
    sim::Simulator sim;
    for (int i = 0; i < 3; ++i) {
      sim.spawn("p" + std::to_string(i),
                [](sim::Context& c) { c.delay(1e-6 * (c.pid() + 1)); });
    }
    sim.run();
    snap = sim.counters();
  }
  sim::SubstrateTotals delta = sim::substrate_totals();
  delta -= before;
  EXPECT_GT(snap.events, 0u);
  EXPECT_EQ(snap.stacks_allocated, 3u);
  EXPECT_EQ(delta.events, snap.events);
  EXPECT_EQ(delta.messages, snap.messages);
  EXPECT_EQ(delta.stacks_allocated, snap.stacks_allocated);
  EXPECT_EQ(delta.stacks_reused, snap.stacks_reused);
  EXPECT_EQ(delta.fiber_switches, snap.fiber_switches);
  EXPECT_EQ(delta.heap_bypass, snap.heap_bypass);
  EXPECT_EQ(delta.wakeups_elided, snap.wakeups_elided);
}

// ---------------------------------------------------------------------------
// Fiber-stack pool: later spawns reuse earlier fibers' stacks.
// ---------------------------------------------------------------------------

TEST(StackPool, ReusesStacksAcrossSpawnWaves) {
  sim::Simulator sim;
  const auto spawn_wave = [&sim](int wave) {
    for (int i = 0; i < 4; ++i) {
      sim.spawn("w" + std::to_string(wave) + "p" + std::to_string(i),
                [](sim::Context& c) { c.delay(1e-6); });
    }
  };
  spawn_wave(0);
  sim.run();
  const sim::SubstrateTotals first = sim.counters();
  EXPECT_EQ(first.stacks_allocated, 4u);
  EXPECT_EQ(first.stacks_reused, 0u);

  spawn_wave(1);  // dynamic respawn (the replica-restart pattern)
  sim.run();
  const sim::SubstrateTotals second = sim.counters();
  EXPECT_EQ(second.stacks_allocated, 4u);  // no new mmaps
  EXPECT_EQ(second.stacks_reused, 4u);
}

// ---------------------------------------------------------------------------
// Payload pool stress across threads.
// ---------------------------------------------------------------------------

TEST(PayloadPool, CrossThreadStress) {
  // Shared payloads copied/sliced/consumed on many threads concurrently:
  // refcounts are atomic, free lists are thread-local, and every byte must
  // survive. Also hammers each thread's own pool with short-lived blocks.
  constexpr std::size_t kBig = 4096;
  std::vector<std::byte> bytes(kBig);
  for (std::size_t i = 0; i < kBig; ++i)
    bytes[i] = static_cast<std::byte>(i * 31 + 7);
  const support::Payload shared{std::span<const std::byte>(bytes)};

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int tn = 0; tn < 4; ++tn) {
    threads.emplace_back([&shared, &bytes, &failures] {
      for (int iter = 0; iter < 2000; ++iter) {
        // Cross-thread sharing: copy the shared payload, slice it, read it.
        support::Payload copy = shared;
        const std::size_t off = static_cast<std::size_t>(iter) % 97;
        support::Payload view = copy.suffix(off);
        if (view.size() != kBig - off ||
            std::memcmp(view.data(), bytes.data() + off, view.size()) != 0) {
          ++failures;
        }
        // Thread-local churn: new heap blocks recycled through this
        // thread's pool.
        std::vector<std::byte> local(256 + static_cast<std::size_t>(iter) % 64,
                                     static_cast<std::byte>(iter));
        support::Payload mine{std::span<const std::byte>(local)};
        support::Buffer out = std::move(mine).take_buffer();
        if (out.size() != local.size() || out[0] != local[0]) ++failures;
      }
      const support::Payload::PoolStats st = support::Payload::pool_stats();
      if (st.blocks_reused == 0) ++failures;  // churn must hit the pool
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The original is still intact after all threads dropped their refs.
  EXPECT_EQ(shared.size(), kBig);
  EXPECT_EQ(std::memcmp(shared.data(), bytes.data(), kBig), 0);
}

TEST(RequestPool, CrossThreadStress) {
  // Request states come from thread-local free lists. Each thread makes
  // requests and hands copies to the next thread in a ring; the maker drops
  // its copies first, so the last reference — and with it the block — is
  // released on the receiving thread. Every field must survive, and the
  // released blocks must feed the receiving thread's later requests.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<std::shared_ptr<mpi::RequestState>>> inbox(
      kThreads);
  std::latch handed_over(kThreads);
  std::latch makers_dropped(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int tn = 0; tn < kThreads; ++tn) {
    threads.emplace_back([&, tn] {
      std::vector<std::shared_ptr<mpi::RequestState>> mine;
      auto& next = inbox[static_cast<std::size_t>((tn + 1) % kThreads)];
      for (int i = 0; i < kPerThread; ++i) {
        auto st = mpi::make_request_state();
        st->match_tag = tn * kPerThread + i;
        st->data = support::Payload(support::as_bytes_of(i));
        mine.push_back(st);
        next.push_back(std::move(st));  // read by its owner after the latch
      }
      handed_over.arrive_and_wait();
      mine.clear();
      makers_dropped.arrive_and_wait();

      const int prev = (tn + kThreads - 1) % kThreads;
      std::set<const void*> released;
      auto& got = inbox[static_cast<std::size_t>(tn)];
      for (int i = 0; i < kPerThread; ++i) {
        const auto& st = got[static_cast<std::size_t>(i)];
        if (st.use_count() != 1 || st->match_tag != prev * kPerThread + i ||
            support::from_buffer<int>(st->data) != i) {
          ++failures;
        }
        released.insert(st.get());
      }
      got.clear();  // last references: the blocks land in this thread's list
      std::size_t reused = 0;
      for (int i = 0; i < kPerThread; ++i) {
        mine.push_back(mpi::make_request_state());
        reused += released.count(mine.back().get());
      }
      if (reused != released.size()) ++failures;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// ---------------------------------------------------------------------------
// TaskPool semantics.
// ---------------------------------------------------------------------------

TEST(TaskPool, RunsEverySubmittedTask) {
  support::TaskPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 200);
  // The pool is reusable after wait().
  for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 250);
}

TEST(TaskPool, InlineModeRunsOnCallerThread) {
  support::TaskPool pool(1);
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id seen;
  pool.submit([&seen] { seen = std::this_thread::get_id(); });
  pool.wait();
  EXPECT_EQ(seen, self);
}

TEST(TaskPool, WaitRethrowsFirstTaskError) {
  support::TaskPool pool(2);
  std::atomic<int> completed{0};
  pool.submit([] { throw std::runtime_error("boom"); });
  for (int i = 0; i < 20; ++i) pool.submit([&completed] { ++completed; });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  EXPECT_EQ(completed.load(), 20);  // other tasks still ran
  // The error is cleared: the next wait succeeds.
  pool.submit([&completed] { ++completed; });
  pool.wait();
  EXPECT_EQ(completed.load(), 21);
}

}  // namespace
}  // namespace repmpi
