#pragma once

// Communicator: the point-to-point messaging interface of the MPI substrate.
//
// A Comm is a per-process value object (cheap to copy) describing a group of
// world ranks plus this process's rank within it. Its verbs follow MPI
// point-to-point semantics (eager send, blocking/nonblocking receive,
// per-pair FIFO) with exact matching only: a receive names one source and
// one tag, both >= 0. The channel id keeps communicators' traffic apart.
// Collectives live one layer up, in rep::LogicalComm, built over
// fault-tolerant logical p2p as SDR-MPI does.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "simmpi/request.hpp"
#include "simmpi/types.hpp"
#include "simmpi/world.hpp"
#include "support/buffer.hpp"
#include "support/payload.hpp"

namespace repmpi::mpi {

class Comm {
 public:
  /// World communicator for `proc`.
  static Comm world(Proc& proc);

  /// Sub-communicator from explicit membership (comm rank -> world rank).
  /// Every member must construct it with the same `members` and a matching
  /// `channel` (use derive_channel for agreement without communication).
  Comm(Proc& proc, std::uint64_t channel, std::vector<int> members);

  int rank() const { return my_rank_; }
  int size() const { return static_cast<int>(members_.size()); }
  std::uint64_t channel() const { return channel_; }
  int world_rank_of(int comm_rank) const {
    return members_[static_cast<std::size_t>(comm_rank)];
  }
  Proc& proc() const { return *proc_; }

  // --- Point-to-point ------------------------------------------------------

  void send(int dst, int tag, std::span<const std::byte> bytes);
  /// Zero-copy send of an already-captured payload (shared by reference;
  /// the replication layer fans the same payload out to several receivers).
  void send_payload(int dst, int tag, support::Payload payload);
  /// Posts a receive for the message from comm rank `src` with tag `tag`
  /// (no wildcards: a negative source or tag throws).
  Request irecv(int src, int tag);
  Status recv(int src, int tag, support::Buffer& out);
  Status wait(Request& req);

  // Typed convenience wrappers (trivially copyable element types only).
  template <support::TriviallyCopyable T>
  void send_value(int dst, int tag, const T& v) {
    send(dst, tag, support::as_bytes_of(v));
  }

  template <support::TriviallyCopyable T>
  T recv_value(int src, int tag, Status* status = nullptr) {
    support::Buffer buf;
    Status st = recv(src, tag, buf);
    if (status) *status = st;
    if (st.failed) return T{};
    return support::from_buffer<T>(buf);
  }

  /// Deterministically derives a child channel id — all members compute the
  /// same value locally.
  static std::uint64_t derive_channel(std::uint64_t parent,
                                      std::uint64_t salt);

 private:
  Proc* proc_ = nullptr;
  std::uint64_t channel_ = 0;
  std::vector<int> members_;
  int my_rank_ = -1;
};

}  // namespace repmpi::mpi
