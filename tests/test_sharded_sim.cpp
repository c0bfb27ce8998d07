// Sharded-engine tests: one simulation spread over N worker threads must be
// *bit-identical* to the same simulation on 1 shard — virtual wall-clock,
// phase times, event / message / byte counts, per-rank receive order — with
// only host wall-clock allowed to differ. Plus the failure modes: crashes
// announced across shards, deadlock detection spanning shards, and the
// detection-delay >= lookahead guard the conservative windows rely on.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/amg.hpp"
#include "apps/gtc.hpp"
#include "apps/hpccg.hpp"
#include "apps/minighost.hpp"
#include "apps/runner.hpp"
#include "fault/failure.hpp"
#include "late_crash_scenario.hpp"
#include "mpi_test_harness.hpp"
#include "net/machine_model.hpp"
#include "net/topology.hpp"
#include "reverse_wait_scenario.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/sharded_world.hpp"
#include "support/error.hpp"

namespace repmpi {
namespace {

// --- direct substrate fixture ----------------------------------------------

struct ShardedFixture {
  ShardedFixture(int shards, int num_ranks, int cores_per_node = 4)
      : machine(shards, net::MachineModel{},
                net::Topology(num_ranks, cores_per_node), num_ranks) {}

  void run(std::function<void(mpi::Proc&, mpi::Comm&)> body) {
    machine.world().launch([body = std::move(body)](mpi::Proc& proc) {
      mpi::Comm comm = mpi::Comm::world(proc);
      body(proc, comm);
    });
    machine.run();
  }

  mpi::ShardedMachine machine;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Body of a mailbox message: the sender rides in it, as in a NACK.
struct MailboxNote {
  int sender = 0;
  int round = 0;
  int value = 0;
};

/// Per-rank receive-stream fingerprint for an all-to-all-ish exchange into
/// one mailbox key per rank, the pattern of the replication agents' NACKs:
/// every sender writes under source key 0 and names itself in the body, so
/// the receiver drains its mailbox in cross-sender arrival order. Sender,
/// round, payload and the *bit pattern* of the receive completion time all
/// enter the hash, so any reordering or timing drift between shard layouts
/// changes it.
std::vector<std::uint64_t> exchange_fingerprint(int shards, int num_ranks,
                                                int rounds) {
  constexpr int kBoxSource = 0;
  constexpr int kBoxTag = 0;
  ShardedFixture f(shards, num_ranks, /*cores_per_node=*/2);
  std::vector<std::uint64_t> fp(static_cast<std::size_t>(num_ranks), 0);
  f.run([&](mpi::Proc& proc, mpi::Comm& comm) {
    const int r = comm.rank();
    const int n = comm.size();
    for (int i = 0; i < rounds; ++i) {
      // Deterministic per-rank jitter so sends land at staggered instants.
      proc.elapse(1e-7 * static_cast<double>((r * 31 + i * 7) % 17));
      const MailboxNote note{r, i, r * 100 + i};
      proc.elapse(proc.world().model().send_overhead);
      proc.world().send_bytes(proc.world_rank(),
                              comm.world_rank_of((r + 1 + i) % n),
                              comm.channel(), kBoxSource, kBoxTag,
                              support::as_bytes_of(note));
    }
    // For fixed i the destination map is a bijection, so every rank
    // receives exactly `rounds` messages.
    std::uint64_t h = 0x243f6a8885a308d3ULL;
    for (int i = 0; i < rounds; ++i) {
      mpi::Request req =
          testing::post_mailbox(proc, comm, kBoxSource, kBoxTag);
      comm.wait(req);
      const auto note = support::from_buffer<MailboxNote>(req.state().data);
      h = mix(h, static_cast<std::uint64_t>(note.sender));
      h = mix(h, static_cast<std::uint64_t>(note.round));
      h = mix(h, static_cast<std::uint64_t>(note.value));
      h = mix(h, std::bit_cast<std::uint64_t>(proc.now()));
    }
    fp[static_cast<std::size_t>(r)] = h;
  });
  return fp;
}

TEST(ShardedSubstrate, CrossShardExchangeIsShardCountInvariant) {
  const auto base = exchange_fingerprint(1, 8, 12);
  EXPECT_EQ(base, exchange_fingerprint(2, 8, 12));
  EXPECT_EQ(base, exchange_fingerprint(4, 8, 12));
  // More shards than nodes: the extra shards stay empty but must not
  // perturb anything.
  EXPECT_EQ(base, exchange_fingerprint(7, 8, 12));
}

TEST(ShardedSubstrate, ReportsWindowsAndCrossTraffic) {
  ShardedFixture f(2, 4, /*cores_per_node=*/2);
  f.run([&](mpi::Proc&, mpi::Comm& comm) {
    if (comm.rank() == 0) comm.send_value(3, 0, 42);  // node 0 -> node 1
    if (comm.rank() == 3) {
      EXPECT_EQ(comm.recv_value<int>(0, 0), 42);
    }
  });
  const auto st = f.machine.stats();
  EXPECT_GE(st.windows, 1u);
  EXPECT_EQ(st.internode_sends, 1u);
  EXPECT_GE(f.machine.counters().events, 4u);
}

TEST(ShardedSubstrate, DeadlockReportNamesTheStuckShard) {
  // Rank 3 (node 1 -> shard 1) waits for a message nobody sends; the other
  // ranks finish. The engine must aggregate the per-shard diagnoses.
  ShardedFixture f(2, 4, /*cores_per_node=*/2);
  try {
    f.run([&](mpi::Proc&, mpi::Comm& comm) {
      if (comm.rank() == 3) {
        support::Buffer buf;
        comm.recv(0, /*tag=*/99, buf);
      }
    });
    FAIL() << "expected DeadlockError";
  } catch (const support::DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("[shard 1]"), std::string::npos)
        << e.what();
  }
}

TEST(ShardedSubstrate, DetectionDelayBelowLookaheadIsRejected) {
  // The conservative windows only stay conservative because a crash in
  // window W cannot be observed before W's horizon; detection_delay <
  // lookahead would break that, and crash() must say so loudly.
  ShardedFixture f(2, 4, /*cores_per_node=*/2);
  f.machine.world().set_detection_delay(1e-9);
  EXPECT_THROW(f.run([&](mpi::Proc& proc, mpi::Comm& comm) {
    if (comm.rank() == 0) proc.world().crash(0);
  }),
               support::InvariantError);
}

// --- full-application invariance -------------------------------------------

apps::RunResult run_at(apps::RunMode mode, int shards, const apps::AppMain& app,
                       fault::FaultPlan* faults = nullptr) {
  apps::RunConfig cfg;
  cfg.mode = mode;
  cfg.num_logical = 4;
  cfg.shards = shards;
  cfg.faults = faults;
  return apps::run_app(cfg, app);
}

apps::AppMain small_hpccg() {
  apps::HpccgParams p;
  p.nx = p.ny = p.nz = 10;
  p.iterations = 2;
  p.intra_ddot = true;
  p.intra_sparsemv = true;
  return [p](apps::AppContext& ctx) { hpccg(ctx, p); };
}

apps::RunResult run_hpccg(apps::RunMode mode, int shards,
                          fault::FaultPlan* faults = nullptr) {
  return run_at(mode, shards, small_hpccg(), faults);
}

void expect_bit_identical(double a, double b, const char* what) {
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a), std::bit_cast<std::uint64_t>(b))
      << what << ": " << a << " vs " << b;
}

void expect_identical(const apps::RunResult& a, const apps::RunResult& b) {
  expect_bit_identical(a.wallclock, b.wallclock, "wallclock");
  ASSERT_EQ(a.phase_max.size(), b.phase_max.size());
  for (const auto& [phase, t] : a.phase_max) {
    ASSERT_EQ(b.phase_max.count(phase), 1u) << phase;
    expect_bit_identical(t, b.phase_max.at(phase), phase.c_str());
  }
  const intra::IntraStats& x = a.intra_total;
  const intra::IntraStats& y = b.intra_total;
  expect_bit_identical(x.section_time, y.section_time, "section_time");
  expect_bit_identical(x.update_tail_time, y.update_tail_time,
                       "update_tail_time");
  EXPECT_EQ(x.sections, y.sections);
  EXPECT_EQ(x.tasks_executed, y.tasks_executed);
  EXPECT_EQ(x.tasks_received, y.tasks_received);
  EXPECT_EQ(x.tasks_reexecuted, y.tasks_reexecuted);
  EXPECT_EQ(x.update_bytes_sent, y.update_bytes_sent);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.net_messages, b.net_messages);
  EXPECT_EQ(a.net_bytes, b.net_bytes);
  EXPECT_EQ(a.ranks_finished, b.ranks_finished);
  EXPECT_EQ(a.ranks_crashed, b.ranks_crashed);
}

class ShardInvariance : public ::testing::TestWithParam<apps::RunMode> {};

INSTANTIATE_TEST_SUITE_P(Modes, ShardInvariance,
                         ::testing::Values(apps::RunMode::kNative,
                                           apps::RunMode::kReplicated,
                                           apps::RunMode::kIntra),
                         [](const auto& info) {
                           return std::string(apps::to_string(info.param));
                         });

/// Runs `app` at 1, 2 and 4 shards: simulated results, the executed event
/// count and the boundary-merged internode sends must agree.
void expect_shard_invariant(apps::RunMode mode, const apps::AppMain& app) {
  const apps::RunResult one = run_at(mode, 1, app);
  const apps::RunResult two = run_at(mode, 2, app);
  const apps::RunResult four = run_at(mode, 4, app);
  expect_identical(one, two);
  expect_identical(one, four);
  EXPECT_GT(one.events, 0u);
  EXPECT_GT(one.shard_windows, 0u);
  EXPECT_EQ(one.shard_cross_messages, two.shard_cross_messages);
  EXPECT_EQ(one.shard_cross_messages, four.shard_cross_messages);
}

TEST_P(ShardInvariance, HpccgBitIdenticalAcrossShardCounts) {
  expect_shard_invariant(GetParam(), small_hpccg());
}

TEST_P(ShardInvariance, AmgBitIdenticalAcrossShardCounts) {
  apps::AmgParams p;
  p.stencil = kernels::Stencil::k7pt;
  p.solver = apps::AmgParams::Solver::kGMRES;
  p.nx = p.ny = p.nz = 8;
  p.levels = 2;
  p.iterations = 3;
  expect_shard_invariant(GetParam(),
                         [&](apps::AppContext& ctx) { amg(ctx, p); });
}

TEST_P(ShardInvariance, GtcBitIdenticalAcrossShardCounts) {
  apps::GtcParams p;
  p.particles_per_rank = 1500;
  p.grid = 16;
  p.steps = 2;
  expect_shard_invariant(GetParam(),
                         [&](apps::AppContext& ctx) { gtc(ctx, p); });
}

TEST_P(ShardInvariance, MiniGhostBitIdenticalAcrossShardCounts) {
  apps::MiniGhostParams p;
  p.nx = p.ny = p.nz = 8;
  p.steps = 3;
  expect_shard_invariant(GetParam(),
                         [&](apps::AppContext& ctx) { minighost(ctx, p); });
}

TEST(ShardInvarianceFaults, CrashMidSectionBitIdenticalAcrossShardCounts) {
  const auto make_plan = [] {
    fault::FaultPlan p;
    p.add({.world_rank = 5, .site = fault::CrashSite::kAfterTaskExec,
           .nth = 2});
    return p;
  };
  fault::FaultPlan p1 = make_plan();
  fault::FaultPlan p2 = make_plan();
  fault::FaultPlan p4 = make_plan();
  const apps::RunResult one = run_hpccg(apps::RunMode::kIntra, 1, &p1);
  const apps::RunResult two = run_hpccg(apps::RunMode::kIntra, 2, &p2);
  const apps::RunResult four = run_hpccg(apps::RunMode::kIntra, 4, &p4);
  EXPECT_EQ(p1.fired(), 1);
  EXPECT_EQ(p2.fired(), 1);
  EXPECT_EQ(p4.fired(), 1);
  EXPECT_EQ(one.ranks_crashed, 1);
  expect_identical(one, two);
  expect_identical(one, four);
}

TEST(ShardInvarianceFaults, LateCrashReplaysFromTrimmedLogAtTwoShards) {
  // The classic-engine scenario of test_replication at shards=2: receivers
  // on one shard publish floors that trim logs of senders on the other, at
  // window boundaries. The replay and its virtual time must not change.
  const apps::RunResult r = testing::run_late_crash_ring(/*shards=*/2);
  EXPECT_EQ(r.ranks_crashed, 1);
  EXPECT_EQ(r.ranks_finished, 7);
  expect_bit_identical(r.wallclock, 0x1.4d535c95cf81cp-7, "wallclock");
  EXPECT_EQ(r.net_messages, 2735u);
  EXPECT_EQ(r.net_bytes, 43800u);
  EXPECT_EQ(r.replayed_sends, 6u);
  const apps::RunResult clean =
      testing::run_late_crash_ring(/*shards=*/2, /*crash=*/false);
  EXPECT_EQ(clean.replayed_sends, 0u);
  EXPECT_LT(clean.send_log_high_water, 32u);
}

TEST(ShardInvarianceFaults, ReverseOrderWaitsAtTwoShards) {
  // test_protocol_wire's out-of-order scenarios at shards=2, failure-free
  // and with a replay landing on a pending stash: receiver lanes on one
  // shard stash, deliver and publish floors that trim logs of senders on
  // the other, at window boundaries.
  for (int degree : {2, 3}) {
    for (bool crash : {false, true}) {
      apps::RunConfig cfg;
      cfg.mode = apps::RunMode::kReplicated;
      cfg.num_logical = 2;
      cfg.degree = degree;
      cfg.shards = 2;
      std::vector<std::vector<int>> got(
          static_cast<std::size_t>(cfg.num_physical()));
      const apps::RunResult r = apps::run_app(cfg, [&](apps::AppContext& ctx) {
        testing::reverse_wait_body(ctx.proc, ctx.comm, crash, got);
      });
      const std::string at = "degree " + std::to_string(degree) +
                             (crash ? " with crash" : " failure-free");
      const rep::ReplicaLayout layout{2, degree};
      for (int lane = 0; lane < degree; ++lane)
        EXPECT_EQ(got[static_cast<std::size_t>(layout.phys_rank(1, lane))],
                  testing::reverse_wait_want())
            << at << ", receiver lane " << lane;
      EXPECT_EQ(r.shards, 2) << at;
      EXPECT_EQ(r.ranks_crashed, crash ? 1 : 0) << at;
      EXPECT_EQ(r.replayed_sends, crash ? 2u : 0u) << at;
      EXPECT_EQ(r.send_log_live,
                crash ? static_cast<std::uint64_t>(
                            (degree - 1) * testing::kReverseMsgs)
                      : 0u)
          << at;
      EXPECT_EQ(r.recv_streams, static_cast<std::uint64_t>(degree)) << at;
    }
  }
}

constexpr int kReopenTags = 4;
constexpr int kReopenTag0 = 20;

/// Logical 0 sends one message on each of kReopenTags tags to every other
/// logical rank and an allreduce follows, so every stream of the exchange
/// settles. Then logical 0's lane 1 dies and, `sender_wait` later, lane 0,
/// the cover, sends a second round on the same tags: the settled streams
/// reopen. The receivers wait for it `receiver_wait` after the allreduce.
/// `got` is indexed by world rank; each rank records what it received and
/// the allreduce's result.
apps::RunResult run_reopen_after_settle(int degree, int shards,
                                        std::vector<std::vector<int>>& got,
                                        int num_logical = 2,
                                        double sender_wait = 0.002,
                                        double receiver_wait = 0.004) {
  apps::RunConfig cfg;
  cfg.mode = apps::RunMode::kReplicated;
  cfg.num_logical = num_logical;
  cfg.degree = degree;
  cfg.shards = shards;
  got.assign(static_cast<std::size_t>(cfg.num_physical()), {});
  return apps::run_app(cfg, [&](apps::AppContext& ctx) {
    rep::LogicalComm& comm = ctx.comm;
    auto& mine = got[static_cast<std::size_t>(ctx.proc.world_rank())];
    const auto exchange = [&](int round) {
      for (int i = 0; i < kReopenTags; ++i) {
        if (comm.rank() == 0) {
          for (int dst = 1; dst < comm.size(); ++dst)
            comm.send_value(dst, kReopenTag0 + i, 100 * round + i);
        } else {
          mine.push_back(comm.recv_value<int>(0, kReopenTag0 + i));
        }
      }
    };
    exchange(1);
    mine.push_back(comm.allreduce_value(comm.rank() + 1, mpi::ReduceOp::kSum));
    if (comm.rank() == 0) {
      if (comm.lane() == 1) ctx.proc.world().crash(ctx.proc.world_rank());
      ctx.proc.elapse(sender_wait);
    } else {
      ctx.proc.elapse(receiver_wait);
    }
    {
      mpi::ScopedPhase sp(ctx.proc, "reopen");
      exchange(2);
    }
    if (comm.rank() == 0) ctx.proc.elapse(0.05);  // serve the replays
  });
}

TEST(ShardInvarianceFaults, SettledStreamsReopenAndReplayAfterACrash) {
  // The cover knows of the death when it sends round 2, and the receivers
  // wait for it after that. Receiver lane 1 has lost its designated sender,
  // so each round-2 wait NACKs the cover from floor 1, and the cover's
  // agent replays seq 1 of every tag from its log; the duplicate is never
  // delivered. The classic engine and one and two shards agree with each
  // other and with values pinned before settled streams left the tables.
  const std::vector<int> want_recv{100, 101, 102, 103, 3,
                                   200, 201, 202, 203};
  for (int degree : {2, 3}) {
    for (int shards : {0, 1, 2}) {
      std::vector<std::vector<int>> got;
      const apps::RunResult r = run_reopen_after_settle(degree, shards, got);
      const std::string at = "degree " + std::to_string(degree) + ", " +
                             std::to_string(shards) + " shards";
      const rep::ReplicaLayout layout{2, degree};
      for (int lane = 0; lane < degree; ++lane) {
        EXPECT_EQ(got[static_cast<std::size_t>(layout.phys_rank(0, lane))],
                  std::vector<int>{3})
            << at << ", sender lane " << lane;
        EXPECT_EQ(got[static_cast<std::size_t>(layout.phys_rank(1, lane))],
                  want_recv)
            << at << ", receiver lane " << lane;
      }
      EXPECT_EQ(r.ranks_crashed, 1) << at;
      EXPECT_EQ(r.replayed_sends, static_cast<std::uint64_t>(kReopenTags))
          << at;
      expect_bit_identical(r.phase("reopen"), 0x1.5cf751db948p-18,
                           (at + ", reopen phase").c_str());
      expect_bit_identical(r.wallclock, 0x1.aa165d422e008p-5,
                           (at + ", wallclock").c_str());
      EXPECT_EQ(r.net_messages, degree == 2 ? 28u : 38u) << at;
      EXPECT_EQ(r.net_bytes, degree == 2 ? 384u : 504u) << at;
    }
  }
}

TEST(ShardInvarianceFaults, NacksFromSeveralRequestersShareOneMailbox) {
  // Three receiver logical ranks lose their designated sender at once. The
  // cover sends round 2 before it learns of the death, so only to its own
  // mirror lanes, and each receiver's lane 1 gets round 2 by replay alone:
  // when the death is announced, the three NACK the same cover together.
  // While the cover's agent replays for one requester, the others' NACKs
  // wait unexpected under its one mailbox key and are served in arrival
  // order: a different service order moves the reopen phase. Outputs,
  // replays and virtual time are pinned to values captured before NACKs
  // shared one mailbox key.
  for (int degree : {2, 3}) {
    for (int shards : {0, 1, 2}) {
      std::vector<std::vector<int>> got;
      const apps::RunResult r =
          run_reopen_after_settle(degree, shards, got, /*num_logical=*/4,
                                  /*sender_wait=*/0.0, /*receiver_wait=*/0.0);
      const std::string at = "degree " + std::to_string(degree) + ", " +
                             std::to_string(shards) + " shards";
      const rep::ReplicaLayout layout{4, degree};
      for (int lane = 0; lane < degree; ++lane) {
        EXPECT_EQ(got[static_cast<std::size_t>(layout.phys_rank(0, lane))],
                  std::vector<int>{10})
            << at << ", sender lane " << lane;
        for (int dst = 1; dst < 4; ++dst) {
          EXPECT_EQ(
              got[static_cast<std::size_t>(layout.phys_rank(dst, lane))],
              (std::vector<int>{100, 101, 102, 103, 10, 200, 201, 202, 203}))
              << at << ", receiver " << dst << " lane " << lane;
        }
      }
      EXPECT_EQ(r.ranks_crashed, 1) << at;
      EXPECT_EQ(r.replayed_sends, 12u) << at;
      expect_bit_identical(r.phase("reopen"), 0x1.7259862595dep-14,
                           (at + ", reopen phase").c_str());
      expect_bit_identical(r.wallclock, 0x1.99d4cc4204d4ap-5,
                           (at + ", wallclock").c_str());
      EXPECT_EQ(r.net_messages, degree == 2 ? 72u : 102u) << at;
      EXPECT_EQ(r.net_bytes, degree == 2 ? 1008u : 1368u) << at;
    }
  }
}

}  // namespace
}  // namespace repmpi
