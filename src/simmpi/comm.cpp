#include "simmpi/comm.hpp"

#include <algorithm>
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
  REPMPI_CHECK_MSG((channel & kInternalBit) == 0,
                   "top channel bit is reserved for collectives");
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
  // Clear the internal bit so derived channels stay in user space.
  return mix64(parent ^ (0x9e3779b97f4a7c15ULL * (salt + 1))) & ~kInternalBit;
}

// --- p2p -------------------------------------------------------------------

void Comm::send_impl(std::uint64_t channel, int dst, int tag,
                     std::span<const std::byte> bytes) {
  REPMPI_CHECK_MSG(dst >= 0 && dst < size(), "send to invalid rank " << dst);
  proc_->context().delay(proc_->world().model().send_overhead);
  proc_->world().send_bytes(proc_->world_rank(), world_rank_of(dst), channel,
                            my_rank_, tag, bytes);
}

void Comm::send_payload(int dst, int tag, support::Payload payload) {
  REPMPI_CHECK_MSG(dst >= 0 && dst < size(), "send to invalid rank " << dst);
  proc_->context().delay(proc_->world().model().send_overhead);
  proc_->world().send_payload(proc_->world_rank(), world_rank_of(dst),
                              channel_, my_rank_, tag, std::move(payload));
}

Request Comm::post_recv_impl(std::uint64_t channel, int src, int tag) {
  REPMPI_CHECK_MSG(src == kAnySource || (src >= 0 && src < size()),
                   "recv from invalid rank " << src);
  auto st = make_request_state();
  st->is_recv = true;
  st->owner = proc_->world().pid_of(proc_->world_rank());
  st->comm_channel = channel;
  st->match_source = src;
  st->match_tag = tag;
  const int world_src = src == kAnySource ? kAnySource : world_rank_of(src);
  proc_->world().post_recv(proc_->world_rank(), world_src, st);
  return Request(std::move(st));
}

void Comm::send(int dst, int tag, std::span<const std::byte> bytes) {
  send_impl(channel_, dst, tag, bytes);
}

Request Comm::isend(int dst, int tag, std::span<const std::byte> bytes) {
  send_impl(channel_, dst, tag, bytes);
  // Eager protocol: the payload has been captured, so the send request is
  // complete as soon as the CPU overhead has been charged.
  auto st = make_request_state();
  st->done = true;
  st->cost_charged = true;
  return Request(std::move(st));
}

Request Comm::irecv(int src, int tag) {
  return post_recv_impl(channel_, src, tag);
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
    // wakes the fiber; completions of sibling requests (waitall, failure
    // notifications) deposit their result and skip the wake/re-park round
    // trip. The loop still re-checks the condition, so a leftover permit
    // or spurious resume cannot fake a completion.
    sim::Context& ctx = proc_->context();
    ctx.set_wait_token(&st);
    while (!st.done) ctx.park();
    ctx.set_wait_token(nullptr);
  }
  if (st.is_recv && !st.cost_charged) {
    st.cost_charged = true;
    if (!st.status.failed) {
      const auto& m = proc_->world().model();
      proc_->context().delay(m.recv_overhead +
                             m.memcpy_time(st.status.bytes));
    }
  }
  return st.status;
}

bool Comm::test(Request& req, Status* status) {
  REPMPI_CHECK(req.valid());
  auto& st = req.state();
  if (!st.done) return false;
  wait(req);  // charge completion costs
  if (status) *status = st.status;
  return true;
}

void Comm::waitall(std::span<Request> reqs) {
  for (auto& r : reqs) {
    if (r.valid()) wait(r);
  }
}

// --- Collective plumbing ----------------------------------------------------

void Comm::coll_send(int dst, int tag, std::span<const std::byte> bytes) {
  send_impl(channel_ | kInternalBit, dst, tag, bytes);
}

Request Comm::coll_irecv(int src, int tag) {
  return post_recv_impl(channel_ | kInternalBit, src, tag);
}

support::Payload Comm::coll_recv(int src, int tag) {
  Request req = coll_irecv(src, tag);
  Status st = wait(req);
  REPMPI_CHECK_MSG(!st.failed,
                   "collective receive failed: peer " << src << " died");
  return std::move(req.state().data);
}

void Comm::charge_combine(std::size_t n, std::size_t elem_size) {
  proc_->compute(net::ComputeCost{
      static_cast<double>(n),
      static_cast<double>(3 * n * elem_size)});
}

// --- Collectives ------------------------------------------------------------

void Comm::barrier() {
  // Dissemination barrier: ceil(log2 n) rounds of empty messages.
  const int n = size();
  const int tag = next_coll_tag();
  for (int dist = 1; dist < n; dist <<= 1) {
    const int dst = (rank() + dist) % n;
    const int src = (rank() - dist + n) % n;
    Request rreq = coll_irecv(src, tag + dist);
    coll_send(dst, tag + dist, {});
    wait(rreq);
  }
  coll_seq_ += 64;  // reserve the per-round tag range uniformly
}

void Comm::bcast_bytes(support::Buffer& buf, int root) {
  const int n = size();
  const int tag = next_coll_tag();
  const int vrank = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int src = ((vrank - mask) + root) % n;
      buf = coll_recv(src, tag).take_buffer();
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      const int dst = ((vrank + mask) + root) % n;
      coll_send(dst, tag, std::span<const std::byte>(buf));
    }
    mask >>= 1;
  }
}

Comm Comm::split(int color, int key) {
  struct ColorKey {
    int color;
    int key;
  };
  const ColorKey mine{color, key};
  std::vector<ColorKey> all(static_cast<std::size_t>(size()));
  allgather(std::span<const ColorKey>(&mine, 1), std::span<ColorKey>(all));

  // Members of my group, ordered by (key, parent rank).
  std::vector<std::pair<int, int>> group;  // (key, parent comm rank)
  for (int r = 0; r < size(); ++r) {
    if (all[static_cast<std::size_t>(r)].color == color)
      group.emplace_back(all[static_cast<std::size_t>(r)].key, r);
  }
  std::sort(group.begin(), group.end());
  std::vector<int> members;
  members.reserve(group.size());
  for (const auto& [k, r] : group) members.push_back(world_rank_of(r));

  const std::uint64_t salt =
      (derive_count_++ << 20) ^ static_cast<std::uint64_t>(
                                    static_cast<std::uint32_t>(color));
  return Comm(*proc_, derive_channel(channel_, salt), std::move(members));
}

Comm Comm::dup() {
  const std::uint64_t salt = (derive_count_++ << 20) ^ 0xduLL;
  Comm c(*proc_, derive_channel(channel_, salt), members_);
  return c;
}

}  // namespace repmpi::mpi
