// Tests for the active-replication layer: layout math, lane-parallel
// mirroring, logical collectives, and crash handling (cover takeover, NACK
// replay, exactly-once in-order delivery).

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <vector>

#include "late_crash_scenario.hpp"
#include "rep_test_harness.hpp"
#include "replication/layout.hpp"

namespace repmpi::rep {
namespace {

using repmpi::testing::RepFixture;

TEST(Layout, PhysRankMapping) {
  ReplicaLayout lay{8, 2};
  EXPECT_EQ(lay.num_physical(), 16);
  EXPECT_EQ(lay.phys_rank(3, 0), 3);
  EXPECT_EQ(lay.phys_rank(3, 1), 11);
  EXPECT_EQ(lay.logical_of(11), 3);
  EXPECT_EQ(lay.lane_of(11), 1);
  EXPECT_EQ(lay.lane_of(3), 0);
}

TEST(Layout, DegreeThree) {
  ReplicaLayout lay{4, 3};
  EXPECT_EQ(lay.num_physical(), 12);
  for (int l = 0; l < 4; ++l)
    for (int k = 0; k < 3; ++k) {
      EXPECT_EQ(lay.logical_of(lay.phys_rank(l, k)), l);
      EXPECT_EQ(lay.lane_of(lay.phys_rank(l, k)), k);
    }
}

TEST(Replication, Degree1IsPassthrough) {
  RepFixture f(4, 1);
  std::vector<int> got(4, -1);
  f.run([&](mpi::Proc&, LogicalComm& comm) {
    EXPECT_FALSE(comm.replicated());
    if (comm.rank() == 0) {
      for (int d = 1; d < comm.size(); ++d) comm.send_value(d, 1, d * 11);
    } else {
      got[static_cast<std::size_t>(comm.rank())] = comm.recv_value<int>(0, 1);
    }
  });
  EXPECT_EQ(got[1], 11);
  EXPECT_EQ(got[2], 22);
  EXPECT_EQ(got[3], 33);
}

TEST(Replication, BothLanesReceiveLogicalSend) {
  RepFixture f(2, 2);
  std::map<int, int> got;  // world rank -> value
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 5, 42 + comm.lane());
    } else {
      got[proc.world_rank()] = comm.recv_value<int>(0, 5);
    }
  });
  // Lane-parallel mirroring: lane 0 receives from lane 0 (value 42), lane 1
  // from lane 1 (value 43). Physical ranks of logical 1: 1 (lane 0), 3.
  EXPECT_EQ(got.at(1), 42);
  EXPECT_EQ(got.at(3), 43);
}

TEST(Replication, ReplicasStayConsistentOnDeterministicData) {
  RepFixture f(3, 2);
  std::map<int, double> results;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    // Ring shift: send to right, receive from left, accumulate.
    double acc = comm.rank() * 1.5;
    for (int it = 0; it < 5; ++it) {
      const int right = (comm.rank() + 1) % comm.size();
      const int left = (comm.rank() - 1 + comm.size()) % comm.size();
      LogicalRequest r = comm.irecv(left, 10 + it);
      comm.send_value(right, 10 + it, acc);
      comm.wait(r);
      acc += support::from_buffer<double>(r.data);
    }
    results[proc.world_rank()] = acc;
  });
  // The two replicas of each logical rank must compute identical values.
  for (int l = 0; l < 3; ++l) {
    EXPECT_DOUBLE_EQ(results.at(l), results.at(l + 3)) << "logical " << l;
  }
}

TEST(Replication, PerTagStreamsAreIndependent) {
  RepFixture f(2, 2);
  std::map<int, std::pair<int, int>> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, 70);
      comm.send_value(1, 8, 80);
    } else {
      // Receive in reverse tag order.
      const int b = comm.recv_value<int>(0, 8);
      const int a = comm.recv_value<int>(0, 7);
      got[proc.world_rank()] = {a, b};
    }
  });
  for (const auto& [rank, ab] : got) {
    EXPECT_EQ(ab.first, 70);
    EXPECT_EQ(ab.second, 80);
  }
}

TEST(Replication, AllreduceConsistentAcrossLanes) {
  RepFixture f(4, 2);
  std::map<int, double> results;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    const double v = static_cast<double>(comm.rank() + 1);
    results[proc.world_rank()] =
        comm.allreduce_value(v, mpi::ReduceOp::kSum);
  });
  ASSERT_EQ(results.size(), 8u);
  for (const auto& [rank, v] : results) EXPECT_DOUBLE_EQ(v, 10.0);
}

TEST(Replication, BcastFromMiddleRank) {
  RepFixture f(3, 2);
  std::map<int, int> results;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    int v = comm.rank() == 1 ? 99 : 0;
    comm.bcast(std::span<int>(&v, 1), 1);
    results[proc.world_rank()] = v;
  });
  for (const auto& [rank, v] : results) EXPECT_EQ(v, 99);
}

TEST(Replication, ReplicaCommConnectsLanes) {
  RepFixture f(2, 2);
  std::map<int, int> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    mpi::Comm& rc = comm.replica_comm();
    EXPECT_EQ(rc.size(), 2);
    EXPECT_EQ(rc.rank(), comm.lane());
    if (comm.lane() == 0) {
      rc.send_value(1, 3, comm.rank() * 100);
    } else {
      got[proc.world_rank()] = rc.recv_value<int>(0, 3);
    }
  });
  EXPECT_EQ(got.at(2), 0);    // logical 0 lane 1
  EXPECT_EQ(got.at(3), 100);  // logical 1 lane 1
}

// --- Failure handling -------------------------------------------------------

TEST(ReplicationFailure, SurvivorsFinishAfterLaneCrash) {
  RepFixture f(2, 2);
  std::map<int, double> results;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    // Lane 1 of logical 0 (world rank 2) dies before the exchange.
    if (proc.world_rank() == 2) {
      proc.world().crash(2);
      proc.elapse(1.0);  // unreachable
    }
    const int peer = 1 - comm.rank();
    LogicalRequest r = comm.irecv(peer, 1);
    comm.send_value(peer, 1, comm.rank() + 0.5);
    comm.wait(r);
    results[proc.world_rank()] = support::from_buffer<double>(r.data);
  });
  // Ranks 0, 1, 3 finish; rank 3 (logical 1 lane 1) failed over to logical
  // 0's lane 0 for its receive.
  EXPECT_DOUBLE_EQ(results.at(0), 1.5);
  EXPECT_DOUBLE_EQ(results.at(1), 0.5);
  EXPECT_DOUBLE_EQ(results.at(3), 0.5);
  EXPECT_EQ(results.count(2), 0u);
}

TEST(ReplicationFailure, CoverReplaysMissedMessages) {
  // Sender lane 1 dies *before sending anything*; its receiver lane 1 peer
  // must obtain every message from lane 0's log via NACK replay, in order.
  RepFixture f(2, 2);
  std::vector<int> lane1_got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() == 0) {
      if (comm.lane() == 1) {
        proc.world().crash(proc.world_rank());
        proc.elapse(1.0);
      }
      for (int i = 0; i < 5; ++i) comm.send_value(1, 4, i * 3);
      proc.elapse(0.01);  // keep the cover alive to serve replays
    } else {
      if (comm.lane() == 1) proc.elapse(0.001);  // let death be announced
      for (int i = 0; i < 5; ++i) {
        const int v = comm.recv_value<int>(0, 4);
        if (comm.lane() == 1) lane1_got.push_back(v);
      }
    }
  });
  EXPECT_EQ(lane1_got, (std::vector<int>{0, 3, 6, 9, 12}));
}

TEST(ReplicationFailure, MidStreamCrashDeliversExactlyOnce) {
  // Sender lane 1 sends the first 3 of 8 messages, then dies. Receiver lane
  // 1 must see all 8 values exactly once, in order (3 direct + 5 replayed).
  RepFixture f(2, 2);
  std::vector<int> lane1_got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 8; ++i) {
        if (comm.lane() == 1 && i == 3) {
          proc.world().crash(proc.world_rank());
        }
        comm.send_value(1, 9, 100 + i);
      }
      proc.elapse(0.01);
    } else {
      for (int i = 0; i < 8; ++i) {
        const int v = comm.recv_value<int>(0, 9);
        if (comm.lane() == 1) lane1_got.push_back(v);
      }
    }
  });
  EXPECT_EQ(lane1_got,
            (std::vector<int>{100, 101, 102, 103, 104, 105, 106, 107}));
}

TEST(ReplicationFailure, AllreduceSurvivesLaneCrash) {
  RepFixture f(4, 2);
  std::map<int, double> results;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (proc.world_rank() == 5) {  // logical 1, lane 1
      proc.world().crash(5);
      proc.elapse(1.0);
    }
    // Give the detector time to announce before the collective: survivors
    // must still agree on the sum.
    proc.elapse(0.01);
    results[proc.world_rank()] =
        comm.allreduce_value(static_cast<double>(comm.rank() + 1),
                             mpi::ReduceOp::kSum);
  });
  EXPECT_EQ(results.size(), 7u);
  for (const auto& [rank, v] : results) EXPECT_DOUBLE_EQ(v, 10.0) << rank;
}

TEST(ReplicationFailure, CrashOutsideCommunicationIsInvisible) {
  // A lane that dies while no exchange involves it: survivors complete the
  // whole run without any failover (the paper's "failure outside sections
  // needs no specific action" for the replication layer).
  RepFixture f(2, 2);
  int completions = 0;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (proc.world_rank() == 3) {
      proc.world().crash(3);
      proc.elapse(1.0);
    }
    for (int i = 0; i < 3; ++i) {
      if (comm.rank() == 0) {
        comm.send_value(1, i, i);
      } else if (comm.lane() == 0) {
        EXPECT_EQ(comm.recv_value<int>(0, i), i);
      }
      // lane 1 of logical 1 is dead; lane 0 still receives its own stream.
    }
    ++completions;
  });
  EXPECT_EQ(completions, 3);
}

TEST(ReplicationFailure, AllLanesDeadThrowsLogicalProcessLost) {
  RepFixture f(2, 2);
  EXPECT_THROW(
      f.run([&](mpi::Proc& proc, LogicalComm& comm) {
        if (comm.rank() == 0) {
          proc.world().crash(proc.world_rank());
          proc.elapse(1.0);
        } else {
          proc.elapse(0.01);  // both lanes of 0 announced dead
          comm.recv_value<int>(0, 1);
        }
      }),
      LogicalProcessLost);
}

TEST(ReplicationFailure, DegreeThreeSurvivesTwoCrashes) {
  RepFixture f(2, 3);
  std::vector<int> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    // Lanes 0 and 2 of logical 0 die at different points mid-stream.
    if (comm.rank() == 0) {
      for (int i = 0; i < 6; ++i) {
        if (comm.lane() == 0 && i == 2) proc.world().crash(proc.world_rank());
        if (comm.lane() == 2 && i == 4) proc.world().crash(proc.world_rank());
        comm.send_value(1, 2, i);
      }
      proc.elapse(0.01);
    } else {
      for (int i = 0; i < 6; ++i) {
        const int v = comm.recv_value<int>(0, 2);
        if (comm.lane() == 0) got.push_back(v);
      }
    }
  });
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(ReplicationFailure, LateCrashReplaysFromTrimmedLog) {
  // Hundreds of iterations in, the designated sender of logical 2's lane 1
  // dies. The cover's log has been trimmed below the receivers' floors all
  // along, yet the replay must be the one an untrimmed log gives: the
  // fingerprint and replay count are those of the unbounded log.
  const apps::RunResult clean =
      repmpi::testing::run_late_crash_ring(/*shards=*/0, /*crash=*/false);
  EXPECT_EQ(clean.replayed_sends, 0u);
  // Bounded: the failure-free log never holds more than a few entries.
  EXPECT_LT(clean.send_log_high_water, 32u);
  EXPECT_GT(clean.net_messages, 2000u);

  const apps::RunResult r = repmpi::testing::run_late_crash_ring(0);
  EXPECT_EQ(r.ranks_crashed, 1);
  EXPECT_EQ(r.ranks_finished, 7);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.wallclock),
            std::bit_cast<std::uint64_t>(0x1.4d535c95cf81cp-7))
      << r.wallclock;
  EXPECT_EQ(r.net_messages, 2735u);
  EXPECT_EQ(r.net_bytes, 43800u);
  EXPECT_EQ(r.replayed_sends, 6u);
}

TEST(ReplicationTiming, FailureFreeOverheadIsSmall) {
  // SDR-MPI's protocol overhead on communication must be small: a
  // replicated ping-pong should take only slightly longer than native.
  auto ping_pong_time = [](int degree) {
    RepFixture f(2, degree);
    sim::Time finish = 0;
    f.run([&](mpi::Proc& proc, LogicalComm& comm) {
      std::vector<double> payload(1 << 12, 1.0);
      for (int i = 0; i < 20; ++i) {
        if (comm.rank() == 0) {
          comm.send_span<double>(1, i, payload);
          comm.recv_value<double>(1, 1000 + i);
        } else {
          std::vector<double> in(payload.size());
          LogicalRequest r = comm.irecv(0, i);
          comm.wait(r);
          support::copy_into(r.data.span(), std::span<double>(in));
          comm.send_value(0, 1000 + i, in[0]);
        }
      }
      finish = std::max(finish, proc.now());
    });
    return finish;
  };
  const double native = ping_pong_time(1);
  const double replicated = ping_pong_time(2);
  EXPECT_GT(replicated, native);
  EXPECT_LT(replicated, native * 1.25)
      << "replication overhead on communication should be modest";
}

}  // namespace
}  // namespace repmpi::rep
