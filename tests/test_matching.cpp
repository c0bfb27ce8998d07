// Tests for the indexed message-matching engine (hash buckets keyed by
// (channel, src, tag) + wildcard list + sequence-number tiebreaks) and the
// zero-copy payload substrate underneath it. These pin down the MPI matching
// semantics the index must preserve exactly: post-order priority across
// exact and wildcard receives, arrival-order tiebreaks, per-pair FIFO
// non-overtaking, and the failure paths (purge, death announcement,
// teardown with receives still posted).

#include <gtest/gtest.h>

#include <vector>

#include "mpi_test_harness.hpp"
#include "support/payload.hpp"

namespace repmpi::mpi {
namespace {

using repmpi::testing::MpiFixture;

TEST(Matching, WildcardPostedFirstBeatsExact) {
  // Post order decides: an any-source receive posted before an exact one
  // must take the message, even though the exact receive is a perfect
  // (channel, src, tag) index hit.
  MpiFixture f(2);
  int wild_src = -2, exact_val = -1;
  bool exact_done_early = true;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(0.1);
      comm.send_value(1, 7, 11);  // matches the wildcard (posted first)
      comm.send_value(1, 7, 22);  // then the exact receive
    } else {
      Request wild = comm.irecv(kAnySource, 7);
      Request exact = comm.irecv(0, 7);
      Status ws = comm.wait(wild);
      exact_done_early = exact.done();
      wild_src = ws.source;
      comm.wait(exact);
      exact_val = support::from_buffer<int>(exact.state().data);
      EXPECT_EQ(support::from_buffer<int>(wild.state().data), 11);
    }
  });
  EXPECT_EQ(wild_src, 0);
  EXPECT_EQ(exact_val, 22);
}

TEST(Matching, ExactPostedFirstBeatsWildcard) {
  MpiFixture f(2);
  int exact_val = -1, wild_val = -1;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.elapse(0.1);
      comm.send_value(1, 7, 11);
      comm.send_value(1, 7, 22);
    } else {
      Request exact = comm.irecv(0, 7);
      Request wild = comm.irecv(kAnySource, 7);
      comm.wait(exact);
      comm.wait(wild);
      exact_val = support::from_buffer<int>(exact.state().data);
      wild_val = support::from_buffer<int>(wild.state().data);
    }
  });
  EXPECT_EQ(exact_val, 11);
  EXPECT_EQ(wild_val, 22);
}

TEST(Matching, WildcardTagGoesToWildList) {
  // src exact but tag wildcard is still a "wildcard" receive for the index;
  // it must see messages of any tag from that source in arrival order.
  MpiFixture f(2);
  std::vector<int> tags;
  f.run([&](Proc&, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 30, 1);
      comm.send_value(1, 10, 2);
      comm.send_value(1, 20, 3);
    } else {
      for (int i = 0; i < 3; ++i) {
        support::Buffer buf;
        Status st = comm.recv(0, kAnyTag, buf);
        tags.push_back(st.tag);
      }
    }
  });
  EXPECT_EQ(tags, (std::vector<int>{30, 10, 20}));
}

TEST(Matching, WildcardDrainsUnexpectedInArrivalOrder) {
  // Messages from different senders land in different index buckets; an
  // any-source receive posted afterwards must still drain them in global
  // arrival order (Envelope::seq tiebreak across buckets).
  MpiFixture f(3);
  std::vector<int> order;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 1) {
      comm.send_value(0, 5, 100);
    } else if (comm.rank() == 2) {
      proc.elapse(0.01);  // strictly after rank 1's message
      comm.send_value(0, 5, 200);
    } else {
      proc.elapse(1.0);  // both are unexpected by now
      for (int i = 0; i < 2; ++i) {
        support::Buffer buf;
        Status st = comm.recv(kAnySource, 5, buf);
        order.push_back(support::from_buffer<int>(buf));
        EXPECT_EQ(st.source, i + 1);
      }
    }
  });
  EXPECT_EQ(order, (std::vector<int>{100, 200}));
}

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

TEST(Matching, DeathFailsExactAndWildcardTagReceives) {
  // Death announcement must find victims in both index structures: the
  // exact bucket (src+tag concrete) and the wildcard list (tag wildcard but
  // explicit source).
  MpiFixture f(3);
  bool exact_failed = false, wildtag_failed = false, other_ok = false;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.world().crash(0);
      proc.elapse(10.0);
    } else if (comm.rank() == 1) {
      Request exact = comm.irecv(0, 5);
      Request wildtag = comm.irecv(0, kAnyTag);
      Request other = comm.irecv(2, 5);
      exact_failed = comm.wait(exact).failed;
      wildtag_failed = comm.wait(wildtag).failed;
      other_ok = !comm.wait(other).failed;
    } else {
      proc.elapse(1.0);
      comm.send_value(1, 5, 9);
    }
  });
  EXPECT_TRUE(exact_failed);
  EXPECT_TRUE(wildtag_failed);
  EXPECT_TRUE(other_ok);
}

TEST(Matching, DeathSparesAnySourceReceives) {
  // A pure any-source receive does not await a specific peer; a crash
  // elsewhere must not fail it (another sender can still satisfy it).
  MpiFixture f(3);
  int got = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      proc.world().crash(0);
      proc.elapse(10.0);
    } else if (comm.rank() == 1) {
      got = comm.recv_value<int>(kAnySource, 3);
    } else {
      proc.elapse(2.0);  // well after the death announcement
      comm.send_value(1, 3, 42);
    }
  });
  EXPECT_EQ(got, 42);
}

TEST(Matching, UnexpectedFromDeadPeerStillBeatsFailFast) {
  // The indexed fail-fast path must check the unexpected index before
  // failing a receive that awaits a dead peer (the paper's "replicas that
  // already got the update keep it" case), including via the wildcard scan.
  MpiFixture f(2);
  int got_exact = 0;
  int got_wild = 0;
  f.run([&](Proc& proc, Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 1, 7);
      comm.send_value(1, 2, 8);
      proc.world().crash(0);
      proc.elapse(10.0);
    } else {
      proc.elapse(2.0);  // death announced; both messages already queued
      got_exact = comm.recv_value<int>(0, 1);
      Status st;
      support::Buffer buf;
      st = comm.recv(0, kAnyTag, buf);
      EXPECT_FALSE(st.failed);
      got_wild = support::from_buffer<int>(buf);
    }
  });
  EXPECT_EQ(got_exact, 7);
  EXPECT_EQ(got_wild, 8);
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
        Request r1 = comm.irecv(2, 1);          // never satisfied
        Request r2 = comm.irecv(kAnySource, 2);  // never satisfied
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
  // Every round uses fresh tags, so buckets are drained, recycled and
  // re-keyed over and over: after plain drains, after purge_unexpected
  // closed a bucket that still held a message, and after a death
  // announcement emptied more buckets at once than the spare list keeps.
  // Post order, arrival order and wildcard priority must hold every round.
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
    // Exact, wildcard, exact posted before the three messages arrive: they
    // complete in post order.
    auto post_order_round = [&](int t, int r) {
      if (comm.rank() == 0) {
        Request a = comm.irecv(1, t);
        Request b = comm.irecv(kAnySource, t);
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
        Request x = comm.irecv(kAnySource, t);
        comm.wait(x);
        EXPECT_EQ(x.state().status.source, 1);
        EXPECT_EQ(value(x), r);
        Request y = comm.irecv(1, kAnyTag);
        comm.wait(y);
        EXPECT_EQ(y.state().status.tag, t + 1);
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
        comm.send_value(0, t + 1, -r);
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
