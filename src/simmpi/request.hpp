#pragma once

// Nonblocking receive requests.
//
// Sends are eager and have no request: the payload is captured at send time
// and the send returns as soon as the sender's CPU overhead is charged
// (the wire time is accounted on the NICs by the network model, emulating
// DMA/RDMA progress that overlaps with computation). Receive requests
// complete when a message with their exact key is delivered, or complete
// with status.failed when the awaited peer is declared dead.

#include <memory>
#include <optional>
#include <span>

#include "sim/simulator.hpp"
#include "simmpi/types.hpp"
#include "support/payload.hpp"
#include "support/recycling_allocator.hpp"

namespace repmpi::mpi {

struct RequestState {
  bool done = false;
  /// Receiver-side costs (overhead + payload copy) are charged exactly once,
  /// when the owner collects the completion via wait.
  bool cost_charged = false;
  Status status;
  /// Received payload; shares the sender's bytes by reference — the modeled
  /// copy cost is charged at wait time instead. Stays empty for a receive
  /// with a sink.
  support::Payload data;
  /// Where the received bytes land, when set: completion copies the matched
  /// payload here (its size must equal the sink's) and drops its reference,
  /// so the receiver holds none of the message's bytes past arrival. The
  /// modeled copy is still charged at wait time, as for `data`. The sink
  /// must stay valid until the request is done; a failed receive leaves it
  /// untouched.
  std::optional<std::span<std::byte>> sink;
  sim::Pid owner = sim::kNoPid;

  // Exact matching key of a posted receive: (comm_channel, match_source,
  // match_tag), the source being the sender's rank in the communicator.
  // match_world_src is the world rank whose death fails the receive (death
  // is announced per world rank), or kNoPeer.
  std::uint64_t comm_channel = 0;
  int match_source = 0;
  int match_tag = 0;
  int match_world_src = kNoPeer;
};

/// Makes a request state. Its block (the state plus its shared_ptr control
/// block) comes from a thread-local free list, so a steady-state message
/// allocates no request; see support/recycling_allocator.hpp.
inline std::shared_ptr<RequestState> make_request_state() {
  return std::allocate_shared<RequestState>(
      support::RecyclingAllocator<RequestState>{});
}

class Request {
 public:
  Request() = default;
  explicit Request(std::shared_ptr<RequestState> st) : st_(std::move(st)) {}

  bool valid() const { return st_ != nullptr; }
  bool done() const { return st_ && st_->done; }
  RequestState& state() { return *st_; }
  const RequestState& state() const { return *st_; }
  std::shared_ptr<RequestState> shared() const { return st_; }

 private:
  std::shared_ptr<RequestState> st_;
};

}  // namespace repmpi::mpi
