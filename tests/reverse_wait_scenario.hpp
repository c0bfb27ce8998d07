#pragma once

// Out-of-order receives on one stream, shared by the classic-engine and
// sharded-engine protocol tests. Logical 1 posts four irecvs on (0, tag)
// and waits on them in reverse order, so every message but the last one
// waited for arrives ahead of its turn and takes the stream's out-of-line
// reorder record. With `crash`, logical 0's lane 1 dies after two sends;
// receiver lane 1 has stashed seqs 0 and 1 when it NACKs the cover
// (lane 0), whose replay of those two lands while they are still pending.

#include <cstddef>
#include <vector>

#include "replication/logical_comm.hpp"
#include "support/buffer.hpp"

namespace repmpi::testing {

inline constexpr int kReverseMsgs = 4;
inline constexpr int kReverseTag = 5;

/// The payload of each seq, which request `seq` must get.
inline std::vector<int> reverse_wait_want() {
  std::vector<int> want;
  for (int seq = 0; seq < kReverseMsgs; ++seq) want.push_back(50 + seq);
  return want;
}

/// The body every physical rank runs. `got` is indexed by world rank and
/// sized beforehand; a receiver lane fills its slot with the payload each
/// request (in posting order) got.
inline void reverse_wait_body(mpi::Proc& proc, rep::LogicalComm& comm,
                              bool crash, std::vector<std::vector<int>>& got) {
  if (comm.rank() == 0) {
    const std::vector<int> values = reverse_wait_want();
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (crash && i == 2) {
        if (comm.lane() == 1) proc.world().crash(proc.world_rank());
        if (comm.lane() == 0) proc.elapse(0.002);  // knows of the death now
      }
      comm.send_value(1, kReverseTag, values[i]);
    }
    proc.elapse(0.05);  // stay alive to serve the replay
    return;
  }
  std::vector<rep::LogicalRequest> reqs;
  for (int i = 0; i < kReverseMsgs; ++i)
    reqs.push_back(comm.irecv(0, kReverseTag));
  for (int i = kReverseMsgs - 1; i >= 0; --i)
    comm.wait(reqs[static_cast<std::size_t>(i)]);
  auto& mine = got[static_cast<std::size_t>(proc.world_rank())];
  for (const rep::LogicalRequest& r : reqs)
    mine.push_back(support::from_buffer<int>(r.data));
}

}  // namespace repmpi::testing
