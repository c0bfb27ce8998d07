// Tests for the exact-key message-matching engine (one match table per
// rank: a slot per (channel, src, tag) key holding a posted FIFO and an
// unexpected FIFO) and the zero-copy payload substrate underneath it. These
// pin down the MPI matching semantics the table must preserve exactly:
// post order and arrival order within a key, per-pair FIFO non-overtaking,
// and the failure paths (purge, death announcement, mailbox receives that
// watch no peer, teardown with receives still posted). Receives with a sink
// copy their message into it on completion and keep no payload.

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "mpi_test_harness.hpp"
#include "support/payload.hpp"

namespace repmpi::mpi {
namespace {

using repmpi::testing::MpiFixture;
using repmpi::testing::post_mailbox;

TEST(Matching, DeepUnexpectedQueueMatchesByTag) {
  // A deep unexpected queue (distinct tags) must be consumable in any order:
  // each receive is an index hit, independent of queue depth.
  constexpr int kDepth = 64;
  MpiFixture f(2);
  bool ok = true;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kDepth; ++i) comm.send_value(1, i, i * 3);
    } else {
      proc.elapse(1.0);  // let everything arrive unexpected
      for (int i = kDepth - 1; i >= 0; --i) {  // reverse tag order
        if (comm.recv_value<int>(0, i) != i * 3) ok = false;
      }
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Matching, DeepSingleKeyBucketsStayFifo) {
  // Hundreds of entries under one key, in both queues: the bucket drops its
  // consumed prefix several times while it drains, and must keep post and
  // arrival order throughout.
  constexpr int kDepth = 300;
  MpiFixture f(2);
  std::vector<int> unexpected_order, posted_order;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < kDepth; ++i) comm.send_value(1, 4, i);
      comm.recv_value<int>(1, 9);  // receiver has posted its receives
      for (int i = 0; i < kDepth; ++i) comm.send_value(1, 5, i);
    } else {
      proc.elapse(1.0);  // the tag-4 messages all arrive unexpected
      for (int i = 0; i < kDepth; ++i)
        unexpected_order.push_back(comm.recv_value<int>(0, 4));
      std::vector<Request> reqs;
      for (int i = 0; i < kDepth; ++i) reqs.push_back(comm.irecv(0, 5));
      comm.send_value(0, 9, 0);
      for (Request& r : reqs) {
        comm.wait(r);
        posted_order.push_back(support::from_buffer<int>(r.state().data));
      }
    }
  });
  std::vector<int> expected(kDepth);
  for (int i = 0; i < kDepth; ++i) expected[static_cast<std::size_t>(i)] = i;
  EXPECT_EQ(unexpected_order, expected);
  EXPECT_EQ(posted_order, expected);
}

TEST(Matching, PerPairFifoNonOvertakingMixedSizes) {
  // A huge message followed by a tiny one on the same (src, dst, tag): the
  // tiny one's wire time is shorter but it must not overtake (network FIFO
  // + bucket FIFO). Received in send order with sizes intact.
  MpiFixture f(8);  // ranks 0 and 4 on different nodes
  std::vector<std::size_t> sizes;
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<std::byte> big(1 << 20);
      std::vector<std::byte> small(8);
      comm.send(4, 1, big);
      comm.send(4, 1, small);
    } else if (comm.rank() == 4) {
      for (int i = 0; i < 2; ++i) {
        support::Buffer buf;
        comm.recv(0, 1, buf);
        sizes.push_back(buf.size());
      }
    }
  });
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_EQ(sizes[0], std::size_t{1} << 20);
  EXPECT_EQ(sizes[1], 8u);
}

TEST(Matching, PurgeUnexpectedIsSelectiveOnIndexedQueues) {
  MpiFixture f(3);
  std::size_t purged = 0;
  int kept = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 1) {
      comm.send_value(0, 1, 10);
      comm.send_value(0, 2, 20);
    } else if (comm.rank() == 2) {
      comm.send_value(0, 1, 30);
    } else {
      proc.elapse(1.0);  // all three land unexpected
      // Purge rank 1's traffic only; rank 2's message must survive.
      purged = proc.world().purge_unexpected(proc.world_rank(),
                                             comm.channel(), 1);
      kept = comm.recv_value<int>(2, 1);
    }
  });
  EXPECT_EQ(purged, 2u);
  EXPECT_EQ(kept, 30);
}

TEST(Matching, DeathFailsEveryReceiveAwaitingTheDeadPeer) {
  // Death announcement must find its victims in every slot: receives from
  // the dead peer under two tags fail, the receive from a live peer posted
  // between them survives.
  MpiFixture f(3);
  bool first_failed = false, second_failed = false, other_ok = false;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.world().crash(0);
      proc.elapse(10.0);
    } else if (comm.rank() == 1) {
      Request first = comm.irecv(0, 5);
      Request other = comm.irecv(2, 5);
      Request second = comm.irecv(0, 6);
      first_failed = comm.wait(first).failed;
      second_failed = comm.wait(second).failed;
      other_ok = !comm.wait(other).failed;
    } else {
      proc.elapse(1.0);
      comm.send_value(1, 5, 9);
    }
  });
  EXPECT_TRUE(first_failed);
  EXPECT_TRUE(second_failed);
  EXPECT_TRUE(other_ok);
}

TEST(Matching, DeathSparesReceivesThatWatchNoPeer) {
  // A mailbox receive watches no peer: even when its source key names the
  // rank that dies, the death must not fail it, and a live rank writing
  // under that key still satisfies it.
  MpiFixture f(3);
  int got = 0;
  bool failed = true;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.world().crash(0);
      proc.elapse(10.0);
    } else if (comm.rank() == 1) {
      Request box = post_mailbox(proc, comm, /*src=*/0, /*tag=*/3);
      failed = comm.wait(box).failed;
      got = support::from_buffer<int>(box.state().data);
    } else {
      proc.elapse(2.0);  // well after the death announcement
      const int v = 42;
      proc.world().send_bytes(proc.world_rank(), 1, comm.channel(),
                              /*src_comm_rank=*/0, /*tag=*/3,
                              support::as_bytes_of(v));
    }
  });
  EXPECT_FALSE(failed);
  EXPECT_EQ(got, 42);
}

TEST(Matching, UnexpectedFromDeadPeerStillBeatsFailFast) {
  // The fail-fast path must check the unexpected queue before failing a
  // receive that awaits a dead peer (the paper's "replicas that already got
  // the update keep it" case), for every key the dead peer left queued.
  MpiFixture f(2);
  int got_first = 0;
  int got_second = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 7);
      comm.send_value(1, 2, 8);
      proc.world().crash(0);
      proc.elapse(10.0);
    } else {
      proc.elapse(2.0);  // death announced; both messages already queued
      got_first = comm.recv_value<int>(0, 1);
      support::Buffer buf;
      const Status st = comm.recv(0, 2, buf);
      EXPECT_FALSE(st.failed);
      got_second = support::from_buffer<int>(buf);
    }
  });
  EXPECT_EQ(got_first, 7);
  EXPECT_EQ(got_second, 8);
}

TEST(Matching, TeardownWithPostedReceivesOutstanding) {
  // Posted receives (and their payload references) outstanding at world
  // teardown: the killed processes unwind and the queues drop cleanly.
  auto run = [] {
    MpiFixture f(3);
    f.world->launch([](Proc& proc) {
      Comm comm = Comm::world(proc);
      if (proc.world_rank() == 0) {
        comm.send_value(1, 9, 1);  // lands unexpected, never consumed
        proc.world().crash(0);
        proc.elapse(10.0);
      } else if (proc.world_rank() == 1) {
        Request r1 = comm.irecv(2, 1);  // never satisfied
        Request r2 = comm.irecv(2, 2);  // never satisfied
        comm.wait(r1);
        comm.wait(r2);
      } else {
        Request r = comm.irecv(1, 1);  // never satisfied
        comm.wait(r);
      }
    });
    // Drain events without requiring the parked ranks to finish.
    try {
      f.sim->run();
    } catch (const support::DeadlockError&) {
      // Expected: ranks 1 and 2 are parked forever. Teardown (fixture
      // destructor) must still unwind them and release all queue state.
    }
  };
  EXPECT_NO_THROW(run());
}

TEST(Matching, RecycledBucketsNeverLeakStaleEntries) {
  // Every round uses fresh tags, so slots are drained, recycled and
  // re-keyed over and over: after plain drains, after purge_unexpected
  // closed a slot that still held a message, and after a death
  // announcement emptied more slots at once than the spare list keeps.
  // Post order and arrival order must hold every round.
  constexpr int kRounds = 150;
  constexpr int kDeadWaits = 100;
  constexpr int kCtl = 1;  // go signals and end-of-data markers
  MpiFixture f(4);
  int post_order_rounds = 0;
  int arrival_rounds = 0;
  std::size_t purged = 0;
  int failed = 0;
  int survivor = -1;
  auto value = [](Request& r) {
    return support::from_buffer<int>(r.state().data);
  };
  f.run([&](Proc& proc, Comm& comm) {
    // Three receives under one key posted before the three messages
    // arrive: they complete in post order.
    auto post_order_round = [&](int t, int r) {
      if (comm.rank() == 0) {
        Request a = comm.irecv(1, t);
        Request b = comm.irecv(1, t);
        Request c = comm.irecv(1, t);
        comm.send_value(1, kCtl, r);
        comm.wait(a);
        comm.wait(b);
        comm.wait(c);
        EXPECT_EQ(value(a), 3 * r);
        EXPECT_EQ(value(b), 3 * r + 1);
        EXPECT_EQ(value(c), 3 * r + 2);
        ++post_order_rounds;
      } else if (comm.rank() == 1) {
        EXPECT_EQ(comm.recv_value<int>(0, kCtl), r);
        for (int k = 0; k < 3; ++k) comm.send_value(0, t, 3 * r + k);
      }
    };

    for (int r = 0; r < kRounds; ++r) post_order_round(10000 + r, r);

    // Unexpected messages, matched in arrival order; every tenth round rank
    // 2's message is purged instead of received.
    for (int r = 0; r < kRounds; ++r) {
      const int t = 20000 + 4 * r;
      const bool purge = r % 10 == 0;
      if (comm.rank() == 0) {
        comm.send_value(1, kCtl, r);
        comm.send_value(2, kCtl, r);
        EXPECT_EQ(comm.recv_value<int>(1, kCtl), r);
        EXPECT_EQ(comm.recv_value<int>(2, kCtl), r);
        Request x = comm.irecv(1, t);
        comm.wait(x);
        EXPECT_EQ(value(x), r);
        Request y = comm.irecv(1, t);
        comm.wait(y);
        EXPECT_EQ(value(y), -r);
        if (purge) {
          purged += proc.world().purge_unexpected(proc.world_rank(),
                                                  comm.channel(), 2);
        } else {
          Request z = comm.irecv(2, t);
          comm.wait(z);
          EXPECT_EQ(value(z), 1000 + r);
        }
        ++arrival_rounds;
      } else if (comm.rank() == 1) {
        EXPECT_EQ(comm.recv_value<int>(0, kCtl), r);
        comm.send_value(0, t, r);
        comm.send_value(0, t, -r);
        comm.send_value(0, kCtl, r);
      } else if (comm.rank() == 2) {
        EXPECT_EQ(comm.recv_value<int>(0, kCtl), r);
        proc.elapse(1e-3);  // arrives after rank 1's message on tag t
        comm.send_value(0, purge ? t + 2 : t, 1000 + r);
        comm.send_value(0, kCtl, r);
      }
    }

    // Rank 3 dies while rank 0 waits on it under many fresh tags; the
    // receive from rank 1 posted among them survives.
    if (comm.rank() == 0) {
      std::vector<Request> doomed;
      for (int k = 0; k < kDeadWaits; ++k)
        doomed.push_back(comm.irecv(3, 30000 + k));
      Request alive = comm.irecv(1, 30000);
      comm.send_value(3, kCtl, 0);
      for (Request& d : doomed) failed += comm.wait(d).failed ? 1 : 0;
      comm.send_value(1, kCtl, 0);
      comm.wait(alive);
      survivor = value(alive);
    } else if (comm.rank() == 1) {
      comm.recv_value<int>(0, kCtl);
      comm.send_value(0, 30000, 77);
    } else if (comm.rank() == 3) {
      comm.recv_value<int>(0, kCtl);
      proc.world().crash(proc.world_rank());
      proc.elapse(10.0);
    }

    // The buckets the death emptied are re-keyed with nothing left in them.
    for (int r = 0; r < kRounds; ++r) post_order_round(40000 + r, r);
  });
  EXPECT_EQ(post_order_rounds, 2 * kRounds);
  EXPECT_EQ(arrival_rounds, kRounds);
  EXPECT_EQ(purged, static_cast<std::size_t>(kRounds / 10));
  EXPECT_EQ(failed, kDeadWaits);
  EXPECT_EQ(survivor, 77);
}

// --- Focused waits (zero-heap wakeup contract) ------------------------------

TEST(Matching, WaitallCollectsOutOfOrderCompletionsWithElidedWakes) {
  // The receiver posts N receives and waits on them in post order while the
  // sender completes them in reverse post order: every completion but the
  // one the receiver is currently parked on must deposit its payload without
  // waking it (wakeups_elided counts them), and the wait loop must still
  // hand back all payloads correctly.
  constexpr int kN = 8;
  MpiFixture f(2);
  std::vector<int> got(kN, -1);
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(1.0);  // receiver parks first, on the tag-0 request
      for (int i = kN - 1; i >= 0; --i) {
        comm.send_value(1, i, 100 + i);
        proc.elapse(0.01);  // separate arrivals: each is its own delivery
      }
    } else {
      std::vector<Request> reqs;
      reqs.reserve(kN);
      for (int i = 0; i < kN; ++i) reqs.push_back(comm.irecv(0, i));
      for (auto& r : reqs) comm.wait(r);
      for (int i = 0; i < kN; ++i)
        got[static_cast<std::size_t>(i)] =
            support::from_buffer<int>(reqs[static_cast<std::size_t>(i)]
                                          .state()
                                          .data);
    }
  });
  for (int i = 0; i < kN; ++i)
    EXPECT_EQ(got[static_cast<std::size_t>(i)], 100 + i);
  // Tags kN-1 .. 1 complete while the receiver is focused on tag 0: their
  // wakeups are elided (the last arrival, tag 0, is the one real wake).
  EXPECT_GE(f.sim->counters().wakeups_elided, static_cast<std::uint64_t>(
                                                  kN - 1));
}

TEST(Matching, FocusedWaitStillWokenByFailureOfAwaitedPeer) {
  // A death announcement must wake a focused waiter when it fails the very
  // request being waited on — the focus token only suppresses wakes for
  // *other* requests.
  MpiFixture f(3);
  bool failed = false;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(0.5);
      proc.world().crash(0);
      proc.elapse(10.0);
    } else if (comm.rank() == 1) {
      Request dead = comm.irecv(0, 1);   // fails on the announcement
      Request alive = comm.irecv(2, 2);  // completes later
      Status st = comm.wait(dead);
      failed = st.failed;
      comm.wait(alive);
    } else {
      proc.elapse(2.0);
      comm.send_value(1, 2, 7);
    }
  });
  EXPECT_TRUE(failed);
}

// --- Receive sinks -----------------------------------------------------------

/// A message large enough for a pooled heap payload, filled with `v`.
std::vector<double> heap_message(double v) {
  return std::vector<double>(64, v);
}

void send_doubles(Comm& comm, int dst, int tag,
                  const std::vector<double>& v) {
  comm.send(dst, tag, std::as_bytes(std::span(v)));
}

TEST(Matching, SinkReceiveFillsItsSinkAndKeepsNoPayload) {
  // Posted first (the delivery completes it) and unexpected first (the post
  // completes it): both copy the bytes into the sink and leave `data` empty.
  MpiFixture f(2);
  std::vector<double> posted_sink(64, 0.0), unexpected_sink(64, 0.0);
  bool posted_data_empty = false, unexpected_data_empty = false;
  std::size_t posted_bytes = 0, unexpected_bytes = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(1.0);  // the receiver has posted tag 1, not yet tag 2
      send_doubles(comm, 1, 1, heap_message(1.5));
      send_doubles(comm, 1, 2, heap_message(2.5));
    } else {
      Request posted =
          comm.irecv(0, 1, std::as_writable_bytes(std::span(posted_sink)));
      proc.elapse(2.0);  // tag 2 arrives before its receive
      Request unexpected =
          comm.irecv(0, 2, std::as_writable_bytes(std::span(unexpected_sink)));
      EXPECT_TRUE(unexpected.done());  // completed by the post itself
      posted_bytes = comm.wait(posted).bytes;
      unexpected_bytes = comm.wait(unexpected).bytes;
      posted_data_empty = posted.state().data.empty();
      unexpected_data_empty = unexpected.state().data.empty();
    }
  });
  EXPECT_EQ(posted_sink, heap_message(1.5));
  EXPECT_EQ(unexpected_sink, heap_message(2.5));
  EXPECT_TRUE(posted_data_empty);
  EXPECT_TRUE(unexpected_data_empty);
  EXPECT_EQ(posted_bytes, 64 * sizeof(double));
  EXPECT_EQ(unexpected_bytes, 64 * sizeof(double));
}

TEST(Matching, SinkReceiveReportsAndChargesLikeAPlainReceive) {
  // Same message size, both completed before their wait: a sink receive's
  // Status::bytes and its wait-time charge equal a plain receive's.
  MpiFixture f(2);
  Status plain_st, sink_st;
  double plain_charge = -1, sink_charge = -1;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      send_doubles(comm, 1, 1, heap_message(1.0));
      send_doubles(comm, 1, 2, heap_message(2.0));
    } else {
      std::vector<double> sink(64);
      Request plain = comm.irecv(0, 1);
      Request with_sink =
          comm.irecv(0, 2, std::as_writable_bytes(std::span(sink)));
      proc.elapse(1.0);  // both delivered
      double t0 = proc.now();
      plain_st = comm.wait(plain);
      plain_charge = proc.now() - t0;
      t0 = proc.now();
      sink_st = comm.wait(with_sink);
      sink_charge = proc.now() - t0;
    }
  });
  EXPECT_FALSE(sink_st.failed);
  EXPECT_EQ(sink_st.bytes, plain_st.bytes);
  EXPECT_GT(plain_charge, 0.0);
  EXPECT_EQ(sink_charge, plain_charge);
}

TEST(Matching, FailedSinkReceiveLeavesItsSinkUntouched) {
  // Failed by the death announcement while posted, and failed fast when
  // posted after it: neither writes a byte of its sink.
  MpiFixture f(2);
  std::vector<double> posted_sink(64, 7.0), late_sink(64, 7.0);
  bool posted_failed = false, late_failed = false;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.world().crash(0);
      proc.elapse(10.0);
    } else {
      Request posted =
          comm.irecv(0, 1, std::as_writable_bytes(std::span(posted_sink)));
      posted_failed = comm.wait(posted).failed;
      Request late =
          comm.irecv(0, 2, std::as_writable_bytes(std::span(late_sink)));
      late_failed = comm.wait(late).failed;
    }
  });
  EXPECT_TRUE(posted_failed);
  EXPECT_TRUE(late_failed);
  EXPECT_EQ(posted_sink, std::vector<double>(64, 7.0));
  EXPECT_EQ(late_sink, std::vector<double>(64, 7.0));
}

TEST(Matching, SinkOfAnotherSizeFailsACheck) {
  // A message that does not fit its sink exactly is an error, whichever
  // side came first; it is never truncated or zero-padded silently.
  for (const bool posted_first : {true, false}) {
    MpiFixture f(2);
    std::vector<double> sink(32, 0.0);
    EXPECT_THROW(f.run([&](Proc& proc, Comm& comm) {
                   if (comm.rank() == 0) {
                     send_doubles(comm, 1, 1, heap_message(1));
                   } else {
                     if (!posted_first) proc.elapse(1.0);
                     Request r = comm.irecv(
                         0, 1, std::as_writable_bytes(std::span(sink)));
                     comm.wait(r);
                   }
                 }),
                 support::InvariantError)
        << (posted_first ? "posted first" : "unexpected first");
    EXPECT_EQ(sink, std::vector<double>(32, 0.0));
  }
}

// --- Zero-copy payload substrate -------------------------------------------

TEST(PayloadContract, InlineSmallBufferNeverAllocates) {
  const auto before = support::Payload::pool_stats();
  std::vector<std::byte> small(support::Payload::kInlineCapacity, std::byte{7});
  support::Payload p{std::span<const std::byte>(small)};
  support::Payload copy = p;
  EXPECT_EQ(copy.size(), small.size());
  EXPECT_EQ(std::memcmp(copy.data(), small.data(), small.size()), 0);
  const auto after = support::Payload::pool_stats();
  EXPECT_EQ(before.blocks_allocated + before.blocks_reused,
            after.blocks_allocated + after.blocks_reused);
}

TEST(PayloadContract, SharingIsByReferenceAndSuffixIsZeroCopy) {
  std::vector<std::byte> big(1024);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::byte>(i);
  support::Payload p{std::span<const std::byte>(big)};
  support::Payload shared = p;              // refcount, same bytes
  support::Payload tail = p.suffix(8);      // shared view past a header
  EXPECT_EQ(shared.data(), p.data());
  EXPECT_EQ(tail.data(), p.data() + 8);
  EXPECT_EQ(tail.size(), big.size() - 8);
}

TEST(PayloadContract, TakeBufferMovesWhenSoleOwnerCopiesWhenShared) {
  std::vector<std::byte> big(4096, std::byte{3});
  support::Payload sole{std::span<const std::byte>(big)};
  const std::byte* bytes_before = sole.data();
  support::Buffer moved = std::move(sole).take_buffer();
  EXPECT_EQ(moved.data(), bytes_before);  // backing vector moved, not copied

  support::Payload a{std::span<const std::byte>(big)};
  support::Payload b = a;  // shared: take_buffer must copy
  support::Buffer copied = std::move(a).take_buffer();
  EXPECT_EQ(copied.size(), big.size());
  EXPECT_EQ(b.size(), big.size());  // surviving reference is intact
  EXPECT_EQ(std::memcmp(b.data(), copied.data(), big.size()), 0);
}

TEST(PayloadContract, PoolRecyclesBlocks) {
  // Drop a heap payload, then allocate a new one: the freed block must be
  // served from the free list (the recycling contract benches rely on).
  std::vector<std::byte> big(2048, std::byte{1});
  { support::Payload p{std::span<const std::byte>(big)}; }
  const auto before = support::Payload::pool_stats();
  ASSERT_GT(before.pooled_now, 0u);
  support::Payload q{std::span<const std::byte>(big)};
  const auto after = support::Payload::pool_stats();
  EXPECT_EQ(after.blocks_reused, before.blocks_reused + 1);
}

}  // namespace
}  // namespace repmpi::mpi
