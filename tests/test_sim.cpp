// Unit tests for the discrete-event simulator: event ordering, process
// lifecycle, park/unpark semantics, kill/unwind, determinism, deadlock
// detection.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time_sync.hpp"
#include "support/error.hpp"

namespace repmpi::sim {
namespace {

TEST(Sim, EventsRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Sim, SameTimeEventsRunInScheduleOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Sim, DelayAdvancesVirtualTime) {
  Simulator sim;
  Time t_end = -1;
  sim.spawn("p", [&](Context& ctx) {
    ctx.delay(1.5);
    ctx.delay(0.5);
    t_end = ctx.now();
  });
  sim.run();
  EXPECT_DOUBLE_EQ(t_end, 2.0);
}

TEST(Sim, ZeroDelayIsAllowed) {
  Simulator sim;
  bool done = false;
  sim.spawn("p", [&](Context& ctx) {
    ctx.delay(0.0);
    done = true;
  });
  sim.run();
  EXPECT_TRUE(done);
}

TEST(Sim, NegativeDelayThrows) {
  Simulator sim;
  sim.spawn("p", [&](Context& ctx) { ctx.delay(-1.0); });
  EXPECT_THROW(sim.run(), support::InvariantError);
}

TEST(Sim, ParkUnparkHandshake) {
  Simulator sim;
  Time woke_at = -1;
  const Pid sleeper = sim.spawn("sleeper", [&](Context& ctx) {
    ctx.park();
    woke_at = ctx.now();
  });
  sim.spawn("waker", [&](Context& ctx) {
    ctx.delay(2.0);
    sim.unpark(sleeper);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(woke_at, 2.0);
}

TEST(Sim, ConditionLoopSurvivesEarlyWakeups) {
  // Waiters must loop on their condition (the pattern Comm::wait uses): an
  // unpark that lands while the target is inside an unrelated delay() is
  // absorbed there, so a bare park() can miss it — the loop cannot.
  Simulator sim;
  bool flag = false;
  bool observed = false;
  Pid sleeper = kNoPid;
  sleeper = sim.spawn("sleeper", [&](Context& ctx) {
    ctx.delay(1.0);  // waker's first unpark lands here and is absorbed
    while (!flag) ctx.park();
    observed = true;
  });
  sim.spawn("waker", [&](Context& ctx) {
    ctx.delay(0.5);
    sim.unpark(sleeper);  // early, before the condition is set
    ctx.delay(1.0);
    flag = true;
    sim.unpark(sleeper);  // real wakeup
  });
  sim.run();
  EXPECT_TRUE(observed);
}

TEST(Sim, DelayIsNotCutShortBySpuriousUnpark) {
  Simulator sim;
  Time t_end = -1;
  Pid p = kNoPid;
  p = sim.spawn("p", [&](Context& ctx) {
    ctx.delay(3.0);
    t_end = ctx.now();
  });
  sim.spawn("noise", [&](Context& ctx) {
    ctx.delay(1.0);
    sim.unpark(p);
    ctx.delay(1.0);
    sim.unpark(p);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(t_end, 3.0);
}

TEST(Sim, KillUnwindsParkedProcess) {
  Simulator sim;
  bool cleanup_ran = false;
  bool after_park = false;
  struct Guard {
    bool* flag;
    ~Guard() { *flag = true; }
  };
  const Pid victim = sim.spawn("victim", [&](Context& ctx) {
    Guard g{&cleanup_ran};
    ctx.park();
    after_park = true;
  });
  sim.spawn("killer", [&](Context& ctx) {
    ctx.delay(1.0);
    sim.kill(victim);
  });
  sim.run();
  EXPECT_TRUE(cleanup_ran);      // RAII unwound
  EXPECT_FALSE(after_park);      // body did not continue
  EXPECT_TRUE(sim.finished(victim));
}

TEST(Sim, KillDuringDelayUnwindsAtWakeup) {
  Simulator sim;
  Time died_after = -1;
  const Pid victim = sim.spawn("victim", [&](Context& ctx) {
    ctx.delay(10.0);
    died_after = ctx.now();  // never reached
  });
  sim.spawn("killer", [&](Context& ctx) {
    ctx.delay(1.0);
    sim.kill(victim);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(died_after, -1);
  EXPECT_TRUE(sim.finished(victim));
}

TEST(Sim, CheckKilledThrowsInsideComputeLoop) {
  Simulator sim;
  int iterations = 0;
  const Pid victim = sim.spawn("victim", [&](Context& ctx) {
    for (int i = 0; i < 100; ++i) {
      ctx.delay(1.0);
      ctx.check_killed();
      ++iterations;
    }
  });
  sim.spawn("killer", [&](Context& ctx) {
    ctx.delay(5.5);
    sim.kill(victim);
  });
  sim.run();
  EXPECT_EQ(iterations, 5);
}

TEST(Sim, DeadlockDetected) {
  Simulator sim;
  sim.spawn("stuck", [&](Context& ctx) { ctx.park(); });
  EXPECT_THROW(sim.run(), support::DeadlockError);
}

TEST(Sim, ExceptionInProcessPropagatesToRun) {
  Simulator sim;
  sim.spawn("thrower", [&](Context& ctx) {
    ctx.delay(1.0);
    throw support::UsageError("boom");
  });
  EXPECT_THROW(sim.run(), support::UsageError);
}

TEST(Sim, DynamicSpawnDuringRun) {
  Simulator sim;
  Time child_start = -1;
  sim.spawn("parent", [&](Context& ctx) {
    ctx.delay(2.0);
    sim.spawn("child", [&](Context& cctx) {
      child_start = cctx.now();
      cctx.delay(1.0);
    });
    ctx.delay(5.0);
  });
  sim.run();
  EXPECT_DOUBLE_EQ(child_start, 2.0);
}

TEST(Sim, ManyProcessesInterleaveDeterministically) {
  auto fingerprint = [] {
    Simulator sim;
    std::vector<std::pair<Pid, Time>> trace;
    sim.set_switch_hook([&](Pid p, Time t) { trace.emplace_back(p, t); });
    constexpr int kN = 64;
    for (int i = 0; i < kN; ++i) {
      // += instead of operator+(const char*, string&&): the latter trips
      // GCC 12's -Wrestrict false positive (PR105651) under -Werror.
      std::string name = "p";
      name += std::to_string(i);
      sim.spawn(name, [i](Context& ctx) {
        for (int k = 0; k < 10; ++k) ctx.delay(0.001 * ((i * 7 + k) % 13 + 1));
      });
    }
    sim.run();
    return trace;
  };
  const auto a = fingerprint();
  const auto b = fingerprint();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);
}

TEST(Sim, EventCountTracksExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_at(static_cast<double>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(Sim, ProcessNamesAreStored) {
  // A process's name is what the deadlock report prints for it.
  Simulator sim;
  sim.spawn("alpha", [](Context& ctx) { ctx.park(); });
  try {
    sim.run();
    FAIL() << "expected a deadlock";
  } catch (const support::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos)
        << e.what();
  }
}

TEST(Sim, ScheduleInPastThrows) {
  Simulator sim;
  sim.schedule_at(5.0, [&] {
    EXPECT_THROW(sim.schedule_at(1.0, [] {}), support::InvariantError);
  });
  sim.run();
}

// --- Same-timestamp FIFO stability ------------------------------------------
// These pin the tie-break contract the event queue must preserve: events with
// equal timestamps run in schedule order (sequence-numbered FIFO), no matter
// whether they were scheduled ahead of time, from inside a tied event, or as
// unpark/kill resumes. Execution order among ties is semantically load-
// bearing (it decides NIC reservation order in the network model), so any
// queue replacement is verified against these, not vice versa.

TEST(Sim, EventScheduledAtNowRunsAfterPendingTies) {
  // C is created at t=1 from inside A, so it carries a later sequence number
  // than the pre-scheduled B and must run after it.
  Simulator sim;
  std::vector<char> order;
  sim.schedule_at(1.0, [&] {
    order.push_back('A');
    sim.schedule_at(1.0, [&] { order.push_back('C'); });
  });
  sim.schedule_at(1.0, [&] { order.push_back('B'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C'}));
}

TEST(Sim, ChainedSameTimeSchedulingStaysFifo) {
  // Each tied event appends the next; the chain must interleave strictly
  // after all previously queued ties, producing pure schedule order.
  Simulator sim;
  std::vector<int> order;
  std::function<void(int)> chain = [&](int depth) {
    order.push_back(depth);
    if (depth < 5) sim.schedule_at(2.0, [&chain, depth] { chain(depth + 1); });
  };
  sim.schedule_at(2.0, [&] { chain(0); });
  sim.schedule_at(2.0, [&] { order.push_back(100); });
  sim.schedule_at(2.0, [&] { order.push_back(101); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 100, 101, 1, 2, 3, 4, 5}));
}

TEST(Sim, UnparkRunsAfterPendingSameTimeEvents) {
  // The resume created by unpark is sequenced like any other event: ties
  // already in the queue at unpark time run first.
  Simulator sim;
  std::vector<char> order;
  const Pid sleeper = sim.spawn("sleeper", [&](Context& ctx) {
    ctx.park();
    order.push_back('W');
  });
  sim.schedule_at(1.0, [&] {
    order.push_back('A');
    sim.unpark(sleeper);
  });
  sim.schedule_at(1.0, [&] { order.push_back('B'); });
  sim.schedule_at(1.0, [&] { order.push_back('C'); });
  sim.run();
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'C', 'W'}));
}

TEST(Sim, UnparkOrderDecidesSameTimeWakeOrder) {
  // Several parked processes unparked back-to-back at one timestamp wake in
  // unpark order, not pid order.
  Simulator sim;
  std::vector<int> woke;
  std::vector<Pid> pids;
  for (int i = 0; i < 3; ++i) {
    // += instead of operator+(const char*, string&&): the latter trips
    // GCC 12's -Wrestrict false positive (PR105651) under -Werror.
    std::string name = "p";
    name += std::to_string(i);
    pids.push_back(sim.spawn(name, [&woke, i](Context& ctx) {
      ctx.park();
      woke.push_back(i);
    }));
  }
  sim.schedule_at(1.0, [&] {
    sim.unpark(pids[2]);
    sim.unpark(pids[0]);
    sim.unpark(pids[1]);
  });
  sim.run();
  EXPECT_EQ(woke, (std::vector<int>{2, 0, 1}));
}

TEST(Sim, KillDuringTiedBatchUnwindsAfterRemainingTies) {
  // kill() wakes the victim through a fresh resume, so events already tied
  // at the kill timestamp run before the victim's stack unwinds.
  Simulator sim;
  std::vector<std::string> order;
  struct Guard {
    std::vector<std::string>* log;
    ~Guard() { log->push_back("unwind"); }
  };
  const Pid victim = sim.spawn("victim", [&](Context& ctx) {
    Guard g{&order};
    ctx.park();
  });
  sim.schedule_at(1.0, [&] {
    order.push_back("kill");
    sim.kill(victim);
  });
  sim.schedule_at(1.0, [&] { order.push_back("tie"); });
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"kill", "tie", "unwind"}));
  EXPECT_TRUE(sim.finished(victim));
}

TEST(Sim, UnparkThenDelayYieldsToWokenProcessFirst) {
  // A wakes B then delays: B's same-time resume precedes A's future resume,
  // so the delay cannot take the advance-in-place fast path past it.
  Simulator sim;
  std::vector<std::pair<char, Time>> order;
  Pid b = kNoPid;
  b = sim.spawn("b", [&](Context& ctx) {
    ctx.park();
    order.emplace_back('b', ctx.now());
  });
  sim.spawn("a", [&](Context& ctx) {
    ctx.delay(1.0);
    sim.unpark(b);
    ctx.delay(0.5);
    order.emplace_back('a', ctx.now());
  });
  sim.run();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].first, 'b');
  EXPECT_DOUBLE_EQ(order[0].second, 1.0);
  EXPECT_EQ(order[1].first, 'a');
  EXPECT_DOUBLE_EQ(order[1].second, 1.5);
}

TEST(Sim, MixedScaleTimestampsPopInStableGlobalOrder) {
  // Ordering contract across timestamp scales: for a deterministic
  // pseudo-random mix of microsecond-scale (comm latency) and second-scale
  // (compute delay) timestamps, with an exact tie repeated across scales,
  // pops follow (time, schedule order) exactly.
  Simulator sim;
  std::vector<std::pair<double, int>> expected;
  std::vector<std::pair<double, int>> got;
  std::uint64_t state = 0x12345678ULL;
  auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40);
  };
  for (int i = 0; i < 2000; ++i) {
    double t;
    const double r = next();
    if (i % 10 == 3) {
      t = 2.5;  // repeated exact tie across scales
    } else if (i % 3 == 0) {
      t = 1e-6 * (1.0 + r / 1e3);  // near-future comm scale
    } else {
      t = 1.0 + r / 1e4;  // far compute scale
    }
    expected.emplace_back(t, i);
    sim.schedule_at(t, [&got, t, i] { got.emplace_back(t, i); });
  }
  std::stable_sort(
      expected.begin(), expected.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  sim.run();
  EXPECT_TRUE(got == expected);
}

TEST(Sim, HugeTimestampAfterCommScaleTrafficStillDrains) {
  // Ordering contract at extreme timestamps: after thousands of
  // microsecond-lead delays, events at 1e13 s and beyond, where a
  // microsecond rounds away in double, still all run and the clock ends on
  // the last of them.
  Simulator sim;
  int ran = 0;
  Time last = -1;
  // Two interleaved delayers: every delay sees the other's pending resume
  // and takes the slow path, so the timed lane holds ~2 us leads next to
  // the 1e13 s events.
  for (int pnum = 0; pnum < 2; ++pnum) {
    std::string pname = "p";
    pname += std::to_string(pnum);
    sim.spawn(std::move(pname), [](Context& ctx) {
      for (int i = 0; i < 2000; ++i) ctx.delay(2e-6);
    });
  }
  sim.schedule_at(1e13, [&] { ++ran; });
  sim.schedule_at(1e13, [&] { ++ran; });
  sim.schedule_at(2e13, [&] {
    ++ran;
    last = sim.now();
  });
  sim.run();
  EXPECT_EQ(ran, 3);
  EXPECT_DOUBLE_EQ(last, 2e13);
}

// --- Randomized differential check of the two lanes ------------------------

/// A randomized schedule driven through a Simulator. Every dispatched
/// callback schedules 0-3 children from inside the run, with timestamps
/// drawn from adversarial mixes: zero leads (ready lane) next to timed ties,
/// exact same-instant bursts, denormal leads, a 12-decade tail and a 1e15
/// far tail. Children derive from their parent's key, not from dispatch
/// order. Records every (t, id) in schedule order and in dispatch order.
class RandomSchedule {
 public:
  RandomSchedule(Simulator& sim, std::size_t cap) : sim_(sim), cap_(cap) {}

  void schedule(Time t, std::uint64_t key) {
    if (scheduled.size() >= cap_) return;
    const int id = static_cast<int>(scheduled.size());
    scheduled.emplace_back(t, id);
    last_t_ = t;
    sim_.schedule_at(t, [this, t, id, key] { fire(t, id, key); });
  }

  std::vector<std::pair<Time, int>> scheduled;
  std::vector<std::pair<Time, int>> dispatched;

 private:
  static std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  void fire(Time t, int id, std::uint64_t key) {
    EXPECT_EQ(sim_.now(), t);
    dispatched.emplace_back(t, id);
    const Time now = sim_.now();
    const std::uint64_t children = mix(key) % 4;
    for (std::uint64_t c = 0; c < children; ++c) {
      const std::uint64_t r = mix(key ^ mix(c + 1));
      const std::uint64_t v = r >> 8;
      switch (r % 6) {
        case 0:  // exact same-instant burst on an earlier timestamp
          for (int b = 0; b < 3; ++b) schedule(std::max(last_t_, now), r + b);
          break;
        case 1:  // denormal lead: rounds away to `now` unless now == 0
          schedule(now + 5e-318 * static_cast<double>(1 + v % 3), r);
          break;
        case 2:  // zero lead: the ready lane
          schedule(now, r);
          break;
        case 3:  // comm scale
          schedule(now + 1e-9 * static_cast<double>(v % 4000), r);
          break;
        case 4:  // heavy tail: leads spanning 12 decades
          schedule(now + 1e-6 * std::pow(10.0, static_cast<double>(v % 12)),
                   r);
          break;
        default:  // far tail
          schedule(now + 1e15, r);
          break;
      }
    }
  }

  Simulator& sim_;
  std::size_t cap_;
  Time last_t_ = 0.0;
};

TEST(Sim, RandomizedScheduleDispatchesInStableTimeOrder) {
  // Differential check of the ready/timed lane merge: dispatch order must
  // equal a stable sort of every scheduled event by (t, schedule order).
  // Each schedule runs twice, once through run() and once through
  // run_until() in the sharded engine's fixed-lookahead windows, so the
  // window loop's peek-merge is pinned to the same order.
  const Time bases[] = {0.0, 1e15, 1.0};
  const Time lookaheads[] = {1e-6, 2.5e-9};
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    std::vector<std::pair<Time, int>> orders[2];
    for (int windowed = 0; windowed < 2; ++windowed) {
      Simulator sim;
      RandomSchedule sched(sim, 3000);
      for (std::uint64_t k = 0; k < 32; ++k) {
        sched.schedule(bases[trial % 3], trial * 1000 + k);
      }
      if (windowed == 0) {
        sim.run();
      } else {
        WindowClock clock(lookaheads[trial % 2]);
        while (clock.advance(sim.next_event_time())) sim.run_until(clock.end());
      }
      std::vector<std::pair<Time, int>> expected = sched.scheduled;
      std::stable_sort(
          expected.begin(), expected.end(),
          [](const auto& a, const auto& b) { return a.first < b.first; });
      ASSERT_EQ(expected.size(), 3000u) << "trial " << trial;
      ASSERT_TRUE(sched.dispatched == expected)
          << "trial " << trial << " windowed " << windowed;
      EXPECT_GT(sim.counters().heap_bypass, 0u);
      orders[windowed] = std::move(sched.dispatched);
    }
    EXPECT_TRUE(orders[0] == orders[1]) << "trial " << trial;
  }
}

}  // namespace
}  // namespace repmpi::sim
