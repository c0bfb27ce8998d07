// Wire-rule tests for the replication protocol (replication/protocol.hpp as
// implemented by LogicalComm): the tag-space split between applications and
// collectives, per-(source, tag) sequence enforcement, out-of-order waits,
// duplicate drop when a lagging cover re-sends messages the receiver already
// got from the dead lane, and NACK-triggered replay idempotence across one
// and two successive cover takeovers.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "rep_test_harness.hpp"
#include "replication/protocol.hpp"
#include "reverse_wait_scenario.hpp"
#include "support/error.hpp"

namespace repmpi::rep {
namespace {

using repmpi::testing::RepFixture;

TEST(ProtocolWire, ChannelAndTagSpacesAreDisjoint) {
  // The three traffic classes must never share a channel, and application
  // tags (below kCollTagBase) cannot collide with collective tags.
  EXPECT_NE(kLogicalChannel, kControlChannel);
  EXPECT_LT(kLogicalChannel, kReplicaChannelBase);
  EXPECT_LT(kControlChannel, kReplicaChannelBase);
  EXPECT_GT(kCollTagBase, 0);
  EXPECT_LT(kControlTag, kCollTagBase);
}

TEST(ProtocolWire, ApplicationTagsInCollectiveSpaceAreRejected) {
  // A tag at or above kCollTagBase would share a stream with some
  // collective call, so the public verbs refuse it at every degree.
  for (int degree : {1, 2}) {
    RepFixture send_side(2, degree);
    EXPECT_THROW(send_side.run([](mpi::Proc&, LogicalComm& comm) {
      if (comm.rank() == 0) comm.send_value(1, kCollTagBase, 1);
    }),
                 support::InvariantError)
        << "degree " << degree;
    RepFixture recv_side(2, degree);
    EXPECT_THROW(recv_side.run([](mpi::Proc&, LogicalComm& comm) {
      if (comm.rank() == 1) comm.irecv(0, kCollTagBase);
    }),
                 support::InvariantError)
        << "degree " << degree;
  }
  // The top application tag and the collectives' own tags still work.
  RepFixture f(2, 2);
  std::vector<int> got(4, 0);
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() == 0) comm.send_value(1, kCollTagBase - 1, 7);
    const int v = comm.rank() == 1 ? comm.recv_value<int>(0, kCollTagBase - 1)
                                   : 0;
    got[static_cast<std::size_t>(proc.world_rank())] =
        comm.allreduce_value(v, mpi::ReduceOp::kSum);
  });
  EXPECT_EQ(got, (std::vector<int>{7, 7, 7, 7}));
}

/// Runs the reverse-wait scenario at `degree`; every receiver lane must get
/// each request's own payload. Returns the run's protocol statistics.
LogicalComm::LogStats run_reverse_waits(int degree, bool crash) {
  RepFixture f(2, degree);
  std::vector<std::vector<int>> got(
      static_cast<std::size_t>(f.layout.num_physical()));
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    repmpi::testing::reverse_wait_body(proc, comm, crash, got);
  });
  for (int lane = 0; lane < degree; ++lane) {
    EXPECT_EQ(got[static_cast<std::size_t>(f.layout.phys_rank(1, lane))],
              repmpi::testing::reverse_wait_want())
        << "degree " << degree << " receiver lane " << lane;
  }
  return LogicalComm::log_stats(*f.world);
}

TEST(ProtocolWire, ReverseOrderWaitsDeliverEachSeqOnce) {
  // Seqs 0-2 arrive ahead of their turn and are stashed; seq 3 completes
  // above the floor; the last wait lifts the floor past all four. Both
  // senders' logs are then trimmed empty.
  for (int degree : {2, 3}) {
    const LogicalComm::LogStats st = run_reverse_waits(degree, false);
    EXPECT_EQ(st.live, 0u) << "degree " << degree;
    EXPECT_EQ(st.replayed, 0u) << "degree " << degree;
    EXPECT_EQ(st.streams, static_cast<std::uint64_t>(degree))
        << "degree " << degree;
  }
}

TEST(ProtocolWire, ReplayLandingOnPendingStashIsDroppedOnce) {
  // The cover replays seqs 0 and 1 while receiver lane 1 still holds them
  // in its stash: the copies are dropped, and the cover's mirrored seqs 2
  // and 3 fill the rest. The orphan's NACK froze its published floor at 0
  // (ROADMAP item 2 step 2), so each alive sender lane that could serve it
  // keeps the whole stream; every other log is drained.
  for (int degree : {2, 3}) {
    const LogicalComm::LogStats st = run_reverse_waits(degree, true);
    EXPECT_EQ(st.replayed, 2u) << "degree " << degree;
    EXPECT_EQ(st.live, static_cast<std::uint64_t>(
                           (degree - 1) * repmpi::testing::kReverseMsgs))
        << "degree " << degree;
  }
}

TEST(ProtocolWire, PerSourceTagStreamsSequenceIndependently) {
  // Two sources each interleave two tag streams toward rank 2, which
  // consumes the four streams in a scrambled order. Sequence enforcement is
  // per (source, tag): every stream must deliver its own values in send
  // order no matter how consumption interleaves.
  RepFixture f(3, 2);
  constexpr int kMsgs = 4;
  std::map<int, std::map<std::pair<int, int>, std::vector<int>>> got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() < 2) {
      for (int i = 0; i < kMsgs; ++i) {
        comm.send_value(2, 7, comm.rank() * 1000 + 700 + i);
        comm.send_value(2, 9, comm.rank() * 1000 + 900 + i);
      }
    } else {
      auto drain = [&](int src, int tag) {
        for (int i = 0; i < kMsgs; ++i)
          got[proc.world_rank()][{src, tag}].push_back(
              comm.recv_value<int>(src, tag));
      };
      drain(1, 9);
      drain(0, 7);
      drain(1, 7);
      drain(0, 9);
    }
  });
  ASSERT_EQ(got.size(), 2u);  // both lanes of logical 2 completed
  for (const auto& [world, streams] : got) {
    for (int src : {0, 1}) {
      for (int tag : {7, 9}) {
        std::vector<int> want;
        for (int i = 0; i < kMsgs; ++i)
          want.push_back(src * 1000 + tag * 100 + i);
        EXPECT_EQ(streams.at({src, tag}), want)
            << "world " << world << " src " << src << " tag " << tag;
      }
    }
  }
}

TEST(ProtocolWire, LaggingCoverDuplicatesAreDropped) {
  // Sender lane 1 races through its whole stream and dies; the cover
  // (lane 0) is still mid-stream when it takes over, so its mirrored sends
  // re-deliver a tail the orphaned receiver already got directly from the
  // dead lane. Those below-floor duplicates must be dropped: exactly-once,
  // in-order delivery.
  RepFixture f(2, 2);
  constexpr int kMsgs = 8;
  std::vector<int> lane1_got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() == 0) {
      if (comm.lane() == 1) {
        for (int i = 0; i < kMsgs; ++i) comm.send_value(1, 3, 50 + i);
        proc.world().crash(proc.world_rank());
      } else {
        for (int i = 0; i < kMsgs; ++i) {
          proc.elapse(0.002);  // lag so the takeover happens mid-stream
          comm.send_value(1, 3, 50 + i);
        }
        proc.elapse(0.05);  // stay alive to serve any replay request
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        const int v = comm.recv_value<int>(0, 3);
        if (comm.lane() == 1) lane1_got.push_back(v);
      }
    }
  });
  std::vector<int> want;
  for (int i = 0; i < kMsgs; ++i) want.push_back(50 + i);
  EXPECT_EQ(lane1_got, want);
}

TEST(ProtocolWire, NackReplayServedWhileCoverMainIsBlocked) {
  // Sender lane 1 dies before sending anything. The cover finishes its own
  // sends and immediately blocks in a receive that is answered only after
  // the orphan drained the whole replayed stream — so the replay must be
  // served by the cover's progress agent, not its blocked main thread.
  RepFixture f(2, 2);
  constexpr int kMsgs = 4;
  std::vector<int> got;
  std::map<int, int> acks;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() == 0) {
      if (comm.lane() == 1) {
        proc.world().crash(proc.world_rank());
      }
      for (int i = 0; i < kMsgs; ++i) comm.send_value(1, 2, i * 7);
      acks[proc.world_rank()] = comm.recv_value<int>(1, 99);
    } else {
      if (comm.lane() == 1) proc.elapse(0.001);  // let the death be announced
      for (int i = 0; i < kMsgs; ++i) {
        const int v = comm.recv_value<int>(0, 2);
        if (comm.lane() == 1) got.push_back(v);
      }
      comm.send_value(0, 99, 1234);
    }
  });
  EXPECT_EQ(got, (std::vector<int>{0, 7, 14, 21}));
  EXPECT_EQ(acks.at(0), 1234);
}

TEST(ProtocolWire, FloorAdvancingWhileNackInFlightKeepsReplaySet) {
  // The cover's live sends reach the orphaned receiver lane before it
  // waits, so it NACKs from floor 0 and then drains the whole stream while
  // the NACK is still on the wire. Its floor counts for trimming only up to
  // the NACK's, so the cover still replays every entry the NACK asks for:
  // the replay set (and the virtual time it costs) is the untrimmed one.
  RepFixture f(2, 2);
  constexpr int kMsgs = 6;
  std::vector<int> lane1_got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() == 0) {
      if (comm.lane() == 1) proc.world().crash(proc.world_rank());
      proc.elapse(0.001);  // the cover knows of the death before sending
      for (int i = 0; i < kMsgs; ++i) comm.send_value(1, 4, 40 + i);
      proc.elapse(0.01);  // stay alive to serve the replay
    } else {
      if (comm.lane() == 1) proc.elapse(0.002);  // live sends queued first
      for (int i = 0; i < kMsgs; ++i) {
        const int v = comm.recv_value<int>(0, 4);
        if (comm.lane() == 1) lane1_got.push_back(v);
      }
    }
  });
  std::vector<int> want;
  for (int i = 0; i < kMsgs; ++i) want.push_back(40 + i);
  EXPECT_EQ(lane1_got, want);
  EXPECT_EQ(LogicalComm::log_stats(*f.world).replayed,
            static_cast<std::uint64_t>(kMsgs));
}

TEST(ProtocolWire, ReplayIdempotentAcrossTwoSuccessiveCovers) {
  // Degree 3: the receiver's designated sender (lane 2) dies first, the
  // first cover (lane 0) dies later, so the stream is re-NACKed against the
  // second cover (lane 1). Each takeover replays from the requested floor;
  // the combination must still deliver exactly once, in order.
  RepFixture f(2, 3);
  constexpr int kMsgs = 8;
  std::vector<int> lane2_got;
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        if (comm.lane() == 2 && i == 2) proc.world().crash(proc.world_rank());
        if (comm.lane() == 0 && i == 5) proc.world().crash(proc.world_rank());
        comm.send_value(1, 6, 20 + i);
      }
      proc.elapse(0.02);  // the last cover stays alive to serve replays
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        const int v = comm.recv_value<int>(0, 6);
        if (comm.lane() == 2) lane2_got.push_back(v);
      }
    }
  });
  std::vector<int> want;
  for (int i = 0; i < kMsgs; ++i) want.push_back(20 + i);
  EXPECT_EQ(lane2_got, want);
}

TEST(ProtocolWire, ReplayPreservesPerTagIndependenceAfterTakeover) {
  // A crash mid-stream on one tag must not disturb the sequencing of a
  // second tag from the same source: the cover's replay is keyed by
  // (source, tag), not by source alone.
  RepFixture f(2, 2);
  constexpr int kMsgs = 5;
  std::map<int, std::vector<int>> got;  // tag -> values on receiver lane 1
  f.run([&](mpi::Proc& proc, LogicalComm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        if (comm.lane() == 1 && i == 2) proc.world().crash(proc.world_rank());
        comm.send_value(1, 11, 1100 + i);
        comm.send_value(1, 12, 1200 + i);
      }
      proc.elapse(0.02);
    } else {
      if (comm.lane() == 1) proc.elapse(0.001);
      for (int i = 0; i < kMsgs; ++i) {
        const int a = comm.recv_value<int>(0, 12);  // reverse tag order
        const int b = comm.recv_value<int>(0, 11);
        if (comm.lane() == 1) {
          got[12].push_back(a);
          got[11].push_back(b);
        }
      }
    }
  });
  for (int tag : {11, 12}) {
    std::vector<int> want;
    for (int i = 0; i < kMsgs; ++i) want.push_back(tag * 100 + i);
    EXPECT_EQ(got.at(tag), want) << "tag " << tag;
  }
}

}  // namespace
}  // namespace repmpi::rep
