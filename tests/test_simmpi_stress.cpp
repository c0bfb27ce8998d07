// Stress and determinism tests for the MPI substrate: randomized traffic
// patterns verified against a sequential oracle, many coexisting
// communicators, and bit-reproducibility of whole simulations.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "mpi_test_harness.hpp"
#include "support/rng.hpp"

namespace repmpi::mpi {
namespace {

using repmpi::testing::MpiFixture;

TEST(Stress, RandomizedPairwiseTrafficMatchesOracle) {
  // Every rank sends a deterministic pseudo-random number of messages to
  // every other rank; receivers must observe exactly the oracle's multiset,
  // in per-pair FIFO order.
  constexpr int kRanks = 6;
  support::Rng plan_rng(321);
  int plan[kRanks][kRanks] = {};
  for (int s = 0; s < kRanks; ++s)
    for (int d = 0; d < kRanks; ++d)
      if (s != d) plan[s][d] = static_cast<int>(plan_rng.next_below(5));

  MpiFixture f(kRanks);
  std::map<int, std::map<int, std::vector<int>>> got;  // dst -> src -> seq
  f.run([&](Proc&, Comm& comm) {
    const int me = comm.rank();
    // Post all receives first (wildcard-free), then send everything.
    std::vector<Request> reqs;
    std::vector<int> req_src;
    for (int s = 0; s < kRanks; ++s) {
      for (int k = 0; k < plan[s][me]; ++k) {
        reqs.push_back(comm.irecv(s, /*tag=*/7));
        req_src.push_back(s);
      }
    }
    for (int d = 0; d < kRanks; ++d) {
      for (int k = 0; k < plan[me][d]; ++k) {
        comm.send_value(d, 7, me * 1000 + k);
      }
    }
    for (auto& r : reqs) comm.wait(r);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      got[me][req_src[i]].push_back(
          support::from_buffer<int>(reqs[i].state().data));
    }
  });
  for (int d = 0; d < kRanks; ++d) {
    for (int s = 0; s < kRanks; ++s) {
      if (s == d || plan[s][d] == 0) continue;
      const auto& seq = got[d][s];
      ASSERT_EQ(seq.size(), static_cast<std::size_t>(plan[s][d]));
      for (int k = 0; k < plan[s][d]; ++k) {
        EXPECT_EQ(seq[static_cast<std::size_t>(k)], s * 1000 + k)
            << "pair " << s << "->" << d;
      }
    }
  }
}

TEST(Stress, WholeSimulationIsBitReproducible) {
  // Ten rounds of ring shifts with round-dependent offsets and payloads:
  // every rank sends and receives exactly one message per round, so the
  // pattern is matched; the fingerprint (accumulated values + finish time)
  // must be identical across runs.
  auto fingerprint = [] {
    MpiFixture f(8);
    double acc = 0;
    sim::Time finish = 0;
    f.run([&](Proc& proc, Comm& comm) {
      support::Rng rng(static_cast<std::uint64_t>(comm.rank()) + 1);
      for (int round = 0; round < 10; ++round) {
        const int offset = 1 + round % 7;
        const int dst = (comm.rank() + offset) % 8;
        const int src = (comm.rank() - offset + 8) % 8;
        Request r = comm.irecv(src, round);
        comm.send_value(dst, round, rng.next_double());
        Status st = comm.wait(r);
        EXPECT_FALSE(st.failed);
        acc += support::from_buffer<double>(r.state().data) + src * 1e-3;
        proc.elapse(1e-6 * (comm.rank() + 1));
      }
      finish = std::max(finish, proc.now());
    });
    return std::make_pair(acc, finish);
  };
  const auto a = fingerprint();
  const auto b = fingerprint();
  EXPECT_EQ(a, b);
}

TEST(Stress, LargePayloadRoundTrip) {
  MpiFixture f(2);
  bool ok = false;
  f.run([&](Proc&, Comm& comm) {
    constexpr std::size_t kN = 1 << 20;  // 8 MiB of doubles
    if (comm.rank() == 0) {
      std::vector<double> big(kN);
      for (std::size_t i = 0; i < kN; ++i)
        big[i] = static_cast<double>(i % 1001) * 0.5;
      comm.send(1, 1, std::as_bytes(std::span<const double>(big)));
    } else {
      std::vector<double> in(kN, -1.0);
      support::Buffer buf;
      comm.recv(0, 1, buf);
      support::copy_into(buf, std::span<double>(in));
      ok = in[999999] == static_cast<double>(999999 % 1001) * 0.5;
    }
  });
  EXPECT_TRUE(ok);
}

TEST(Stress, ManyCommunicatorsCoexist) {
  // Overlapping communicators built the way LogicalComm builds its replica
  // comm (derived channel + explicit members): channel ids must never
  // collide, so messages stay within their comm.
  MpiFixture f(8);
  std::vector<int> ok(8, 0);
  f.run([&](Proc& proc, Comm& world) {
    const int me = world.rank();
    auto group = [](auto in_group) {
      std::vector<int> members;
      for (int r = 0; r < 8; ++r)
        if (in_group(r)) members.push_back(r);
      return members;
    };
    const auto parity = group([me](int r) { return r % 2 == me % 2; });
    const auto half = group([me](int r) { return r / 4 == me / 4; });
    std::vector<Comm> comms;
    comms.emplace_back(proc, Comm::derive_channel(world.channel(), 0),
                       group([](int) { return true; }));
    comms.emplace_back(proc, Comm::derive_channel(world.channel(), 10 + me % 2),
                       parity);
    comms.emplace_back(proc, Comm::derive_channel(world.channel(), 20 + me / 4),
                       half);
    comms.emplace_back(proc, Comm::derive_channel(comms[1].channel(), 0),
                       parity);
    bool good = true;
    for (std::size_t c = 0; c < comms.size(); ++c) {
      Comm& sub = comms[c];
      for (std::size_t o = 0; o < c; ++o)
        good = good && sub.channel() != comms[o].channel();
      // Ring exchange within each comm with identical tags everywhere:
      // only the channel can disambiguate.
      const int next = (sub.rank() + 1) % sub.size();
      const int prev = (sub.rank() - 1 + sub.size()) % sub.size();
      Request r = sub.irecv(prev, /*tag=*/1);
      sub.send_value(next, 1, static_cast<int>(c) * 100 + sub.rank());
      sub.wait(r);
      if (support::from_buffer<int>(r.state().data) !=
          static_cast<int>(c) * 100 + prev) {
        good = false;
      }
    }
    ok[static_cast<std::size_t>(me)] = good ? 1 : 0;
  });
  for (int o : ok) EXPECT_EQ(o, 1);
}

TEST(Stress, DerivedChannelIdsAreStable) {
  // Replica channels come from derive_channel; its ids keep the top bit
  // clear and must not change from one version to the next.
  EXPECT_EQ(Comm::derive_channel(1, 0), 0x64d971771b652c20ULL);
  EXPECT_EQ(Comm::derive_channel(1, 1), 0x3eeb8da1658eec67ULL);
  EXPECT_EQ(Comm::derive_channel(1, 7), 0x05e7bb0f12278575ULL);
}

}  // namespace
}  // namespace repmpi::mpi
