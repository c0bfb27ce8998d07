#include "simmpi/comm.hpp"

#include <numeric>

namespace repmpi::mpi {

namespace {
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}
}  // namespace

Comm Comm::world(Proc& proc) {
  std::vector<int> members(static_cast<std::size_t>(proc.world().num_ranks()));
  std::iota(members.begin(), members.end(), 0);
  return Comm(proc, /*channel=*/1, std::move(members));
}

Comm::Comm(Proc& proc, std::uint64_t channel, std::vector<int> members)
    : proc_(&proc), channel_(channel), members_(std::move(members)) {
  my_rank_ = -1;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == proc.world_rank()) {
      my_rank_ = static_cast<int>(i);
      break;
    }
  }
  REPMPI_CHECK_MSG(my_rank_ >= 0, "process " << proc.world_rank()
                                             << " is not a member of comm");
}

std::uint64_t Comm::derive_channel(std::uint64_t parent, std::uint64_t salt) {
  // The ids are pinned (Stress.DerivedChannelIdsAreStable), top-bit mask
  // included: replica channels are built from them.
  return mix64(parent ^ (0x9e3779b97f4a7c15ULL * (salt + 1))) & ~(1ULL << 63);
}

// --- p2p -------------------------------------------------------------------

void Comm::send(int dst, int tag, std::span<const std::byte> bytes) {
  REPMPI_CHECK_MSG(dst >= 0 && dst < size(), "send to invalid rank " << dst);
  proc_->context().delay(proc_->world().model().send_overhead);
  proc_->world().send_bytes(proc_->world_rank(), world_rank_of(dst), channel_,
                            my_rank_, tag, bytes);
}

void Comm::send_payload(int dst, int tag, support::Payload payload) {
  REPMPI_CHECK_MSG(dst >= 0 && dst < size(), "send to invalid rank " << dst);
  proc_->context().delay(proc_->world().model().send_overhead);
  proc_->world().send_payload(proc_->world_rank(), world_rank_of(dst),
                              channel_, my_rank_, tag, std::move(payload));
}

Request Comm::irecv(int src, int tag) {
  REPMPI_CHECK_MSG(src >= 0 && src < size(), "recv from invalid rank " << src);
  REPMPI_CHECK_MSG(tag >= 0, "recv with invalid tag " << tag);
  auto st = make_request_state();
  st->owner = proc_->world().pid_of(proc_->world_rank());
  st->comm_channel = channel_;
  st->match_source = src;
  st->match_tag = tag;
  proc_->world().post_recv(proc_->world_rank(), world_rank_of(src), st);
  return Request(std::move(st));
}

Status Comm::recv(int src, int tag, support::Buffer& out) {
  Request req = irecv(src, tag);
  Status st = wait(req);
  if (!st.failed) out = std::move(req.state().data).take_buffer();
  return st;
}

Status Comm::wait(Request& req) {
  REPMPI_CHECK(req.valid());
  auto& st = req.state();
  if (!st.done) {
    // Focused wait: while parked here, only *this* request's completion
    // wakes the fiber; completions of sibling requests (the rest of a wait
    // loop over several requests, failure notifications) deposit their
    // result and skip the wake/re-park round trip. The loop still re-checks
    // the condition, so a leftover permit or spurious resume cannot fake a
    // completion.
    sim::Context& ctx = proc_->context();
    ctx.set_wait_token(&st);
    while (!st.done) ctx.park();
    ctx.set_wait_token(nullptr);
  }
  if (!st.cost_charged) {
    st.cost_charged = true;
    if (!st.status.failed) {
      const auto& m = proc_->world().model();
      proc_->context().delay(m.recv_overhead +
                             m.memcpy_time(st.status.bytes));
    }
  }
  return st.status;
}

}  // namespace repmpi::mpi
