#pragma once

// Wire format of the replication protocol.
//
// Logical messages carry a sequence-number header (per sender-logical-rank,
// per tag); the receiver enforces in-order delivery per (source, tag) and
// drops duplicates, which makes cover takeover + replay after a replica
// crash idempotent. NACKs travel on a dedicated control channel served by
// each rank's progress agent.

#include <cstdint>

namespace repmpi::rep {

/// Channel ids (Comm channels carry the top bit reserved for collectives, so
/// these must stay below 2^63). Logical app traffic, replica-group traffic
/// (intra-parallel updates) and control traffic are kept disjoint.
constexpr std::uint64_t kLogicalChannel = 0x10;
constexpr std::uint64_t kControlChannel = 0x11;
constexpr std::uint64_t kReplicaChannelBase = 0x100000;

/// Tag space: application tags must stay below kCollTagBase (LogicalComm's
/// send and irecv reject the rest); the logical collectives allocate tags
/// upward from there.
constexpr int kCollTagBase = 1 << 20;
constexpr int kControlTag = 1;
/// Every NACK is sent under this one source key on kControlChannel, so an
/// agent's mailbox is a single exact key whose FIFO holds the NACKs of all
/// requesters in arrival order; the requester is named in the ControlMsg.
constexpr int kNackMailboxSource = 0;

/// Header prepended to every logical payload.
struct MsgHeader {
  std::uint64_t seq = 0;
};

struct ControlMsg {
  enum class Type : std::uint32_t { kNack = 1 };
  Type type = Type::kNack;
  std::int32_t requester_logical = -1;
  std::int32_t requester_lane = -1;
  std::int32_t tag = 0;
  std::uint64_t expected_seq = 0;
};

}  // namespace repmpi::rep
