#pragma once

// LogicalComm: active (state-machine) replication interposition.
//
// Applications address *logical* ranks; each logical rank is realized by
// `degree` physical replicas ("lanes"). The protocol follows SDR-MPI's
// send-deterministic design (Lefray et al., FTXS'13), which the paper builds
// on:
//
//  * lane-parallel mirroring: lane k of a sender transmits to lane k of the
//    receiver, so replica planes carry independent traffic and replication
//    adds no cross-plane messages in failure-free runs;
//  * sequence numbers per (source logical rank, tag) enforce in-order,
//    exactly-once logical delivery;
//  * logical sends are logged; when a lane dies, the lowest-alive lane of
//    that logical rank becomes the *cover* for the dead lane: its future
//    sends also go to the orphaned receiver lanes, and its progress agent
//    replays logged messages on request (NACK) to fill the gap between what
//    the dead lane managed to send and where the cover took over;
//  * the log is bounded by the receivers' floors. Sender lane L's log for
//    a stream (dst, tag) can only be NACKed by receiver lanes j != L of
//    dst, and a NACK asks for replay from j's floor, so entries below the
//    lowest floor of the alive such lanes are dropped (all of them when
//    none is alive). A lane's floor counts only up to its first NACK on the
//    stream: the NACK is still in flight while the floor moves on, and the
//    agent replays everything at or above the floor it carries. Trimming is
//    host-side only; virtual time is never charged for it;
//  * wildcards are rejected: send-determinism presumes deterministic
//    matching, and all four evaluation apps comply (paper Section V-A).
//
// Replication degree 1 bypasses all of the above (no headers, no log, no
// agent) so the same application code doubles as the native baseline.
//
// The progress agent is a companion simulated process per rank modelling the
// MPI library's asynchronous progress thread; it serves NACKs so a cover
// replays even while its main thread is blocked elsewhere.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <memory_resource>
#include <set>
#include <string>
#include <vector>

#include "replication/layout.hpp"
#include "replication/protocol.hpp"
#include "replication/stream_table.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"
#include "support/buffer.hpp"
#include "support/payload.hpp"

namespace repmpi::rep {

/// Thrown when every replica of a logical rank has died — the application
/// cannot continue (with degree 2 this requires a double failure).
class LogicalProcessLost : public support::Error {
 public:
  explicit LogicalProcessLost(int logical)
      : support::Error("all replicas of logical rank " +
                       std::to_string(logical) + " have failed"),
        logical_(logical) {}

  /// The logical rank whose replica set is gone (for job-failure reporting).
  int logical() const { return logical_; }

 private:
  int logical_ = -1;
};

/// Handle for a nonblocking logical receive.
class LogicalRequest {
 public:
  LogicalRequest() = default;
  bool valid() const { return src_logical >= 0; }

  int src_logical = -1;
  int tag = 0;
  std::uint64_t expected_seq = 0;
  mpi::Request phys;  ///< currently posted physical receive
  bool done = false;
  mpi::Status status;
  support::Payload data;  ///< shares the wire payload; no copy on delivery
};

class LogicalComm {
 public:
  /// Constructs the replication endpoint for this physical process. Spawns
  /// the progress agent (degree > 1); the agent lives until either this rank
  /// crashes or every rank's main has completed (the World retires it).
  /// `proc` must outlive the comm.
  LogicalComm(mpi::Proc& proc, ReplicaLayout layout);

  LogicalComm(const LogicalComm&) = delete;
  LogicalComm& operator=(const LogicalComm&) = delete;

  int rank() const { return logical_; }
  int size() const { return layout_.num_logical; }
  int lane() const { return lane_; }
  int degree() const { return layout_.degree; }
  bool replicated() const { return layout_.degree > 1; }
  mpi::Proc& proc() { return proc_; }
  const ReplicaLayout& layout() const { return layout_; }

  /// Fills `out` with the lanes of `logical` whose replica has not been
  /// announced dead (the caller's vector keeps its capacity).
  void alive_lanes(int logical, std::vector<int>& out) const;

  /// Host-side protocol-state statistics of a run, summed over physical
  /// ranks (zero when no rank of `world` was replicated).
  struct LogStats {
    std::uint64_t high_water = 0;  ///< sum of each rank's peak live entries
    std::uint64_t live = 0;        ///< logged entries still held at the end
    std::uint64_t replayed = 0;    ///< messages resent on NACKs
    std::uint64_t streams = 0;     ///< receive streams opened
    /// Stream records (send and receive) still in the tables' arrays at the
    /// end; a settled stream is not held (see StreamTable).
    std::uint64_t held = 0;
  };
  static LogStats log_stats(const mpi::World& world);

  /// Intra-parallel-section guard (paper Definition 1: a section cannot
  /// include message passing). The intra runtime flips this; every logical
  /// verb asserts it is clear.
  void set_in_section(bool v) { in_section_ = v; }
  bool in_section() const { return in_section_; }

  /// Physical communicator spanning the replicas of *this* logical rank —
  /// the channel the intra-parallelization runtime sends task updates on
  /// (SDR-MPI's "dedicated communicator between replicas").
  mpi::Comm& replica_comm();

  // --- Logical point-to-point ---------------------------------------------
  // Application tags lie in [0, kCollTagBase); the collectives own the rest.

  void send(int dst, int tag, std::span<const std::byte> bytes);
  LogicalRequest irecv(int src, int tag);
  mpi::Status wait(LogicalRequest& req);
  mpi::Status recv(int src, int tag, support::Buffer& out);

  template <support::TriviallyCopyable T>
  void send_value(int dst, int tag, const T& v) {
    send(dst, tag, support::as_bytes_of(v));
  }

  template <support::TriviallyCopyable T>
  T recv_value(int src, int tag) {
    support::Buffer buf;
    recv(src, tag, buf);
    return support::from_buffer<T>(buf);
  }

  template <support::TriviallyCopyable T>
  void send_span(int dst, int tag, std::span<const T> v) {
    send(dst, tag, std::as_bytes(v));
  }

  // --- Logical collectives (deterministic; fault-tolerant via the logical
  // p2p layer underneath) ---------------------------------------------------
  // Every rank passes spans of the same lengths; a received block of any
  // other size throws instead of being truncated or zero-filled.

  template <support::TriviallyCopyable T>
  void bcast(std::span<T> data, int root);

  template <support::TriviallyCopyable T>
  void reduce(std::span<const T> in, std::span<T> out, mpi::ReduceOp op,
              int root);

  template <support::TriviallyCopyable T>
  void allreduce(std::span<const T> in, std::span<T> out, mpi::ReduceOp op);

  template <support::TriviallyCopyable T>
  T allreduce_value(T v, mpi::ReduceOp op) {
    T out{};
    allreduce(std::span<const T>(&v, 1), std::span<T>(&out, 1), op);
    return out;
  }

 private:
  struct LoggedMsg {
    std::uint64_t seq;
    /// Header + data, ready to resend. Shares the transmitted payload by
    /// reference: logging a message costs a refcount, not a copy.
    support::Payload payload;
  };
  using TagKey = std::uint64_t;  // (logical peer << 32) | tag

  static TagKey key(int logical, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(logical))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  /// Handle into a Pool; kNone when no record is taken.
  using Handle = std::uint32_t;
  static constexpr Handle kNone = ~Handle{0};

  /// Records taken and given back by handle; given-back slots are reused
  /// first, so a record's buffers outlive it and serve the next one.
  template <class T>
  struct Pool {
    std::vector<T> items;
    std::vector<Handle> free;

    T& operator[](Handle h) { return items[h]; }
    Handle take() {
      if (free.empty()) {
        items.emplace_back();
        return static_cast<Handle>(items.size() - 1);
      }
      const Handle h = free.back();
      free.pop_back();
      return h;
    }
    void give_back(Handle h) { free.push_back(h); }
  };

  /// One sender lane's log of a stream (dst, tag). Entries are in seq
  /// order and hold exactly the sent seqs in [base, next): seqs below base
  /// were trimmed or never logged, since no receiver can ask for them.
  struct SendLog {
    std::uint64_t base = 0;
    /// One past the last seq sent (0 until a send since the record was
    /// opened: a floor can arrive before a lagging sender's first send).
    std::uint64_t next = 0;
    std::vector<LoggedMsg> entries;
  };

  /// Send stream (dst, tag): the next seq to send and its open log, if any.
  /// Settled once its one message is sent and its log closed.
  struct OutRecord {
    std::uint64_t sent = 0;
    Handle log = kNone;
    bool operator==(const OutRecord&) const = default;
  };
  static_assert(sizeof(OutRecord) <= 16, "a held send stream costs 16 B");

  /// Out-of-order part of a receive stream, taken only while a message
  /// arrived ahead of its turn (`stash`) or a wait completed above the
  /// floor (`delivered`), and given back once both are empty.
  struct Reorder {
    std::set<std::uint64_t> delivered;
    std::map<std::uint64_t, support::Payload> stash;
  };

  /// Receive stream (src, tag). `floor` is the lowest seq not yet handed to
  /// the application. Settled once its one posted message is delivered with
  /// no NACK and nothing out of order.
  struct InRecord {
    std::uint64_t posted = 0;  ///< seq the next irecv of the stream expects
    std::uint64_t floor = 0;
    /// Floor carried by this lane's first NACK on the stream (max: none).
    std::uint64_t nack_floor = ~std::uint64_t{0};
    /// Cover lane this stream has already NACKed (-1: none). A NACK is due
    /// whenever the designated sender is not our own lane and differs from
    /// this — the cover may have sent part of the stream before it learned
    /// of the death, so we must request a replay of the gap.
    std::int32_t nacked_lane = -1;
    Handle reorder = kNone;

    /// The floor the senders' logs are trimmed by: frozen at the first NACK.
    std::uint64_t published() const { return std::min(floor, nack_floor); }
    bool operator==(const InRecord&) const = default;
  };
  static_assert(sizeof(InRecord) <= 40, "a held receive stream costs 40 B");

  /// Protocol state of one physical rank. The run's Registry owns it, so it
  /// outlives the rank's LogicalComm (on the stack of the rank's main): the
  /// progress agent replays from it, and senders read its floors after the
  /// rank's main has returned. No locking is needed: the classic engine
  /// runs every fiber on one thread, and a sharded run lets other ranks
  /// touch this state only at window boundaries.
  ///
  /// Table growth and erasure move records, so no reference into `out` or
  /// `logs` is held across a yield: Registry::trim, run by another rank's
  /// floor advance or at a window boundary, may open a log, insert into
  /// `out` or settle (erase) an `out` record, and log_send may settle the
  /// record post_send passes it, which post_send does not use afterwards.
  /// Only the rank's own main fiber inserts into or erases from `in` and
  /// `reorders`, so wait() may keep its stream's `in` record across the
  /// pump: deliver() settles that record last, and wait() returns next.
  struct SharedState {
    StreamTable<OutRecord> out{OutRecord{.sent = 1}};
    StreamTable<InRecord> in{InRecord{.posted = 1, .floor = 1}};
    Pool<SendLog> logs;
    Pool<Reorder> reorders;
    std::uint64_t live = 0;      ///< logged entries held now
    std::uint64_t peak = 0;      ///< high-water of `live`
    std::uint64_t replayed = 0;  ///< messages the agent resent on NACKs

    /// Opens a log for `rec` whose first kept seq is `base`.
    SendLog& open_log(OutRecord& rec, std::uint64_t base) {
      rec.log = logs.take();
      SendLog& log = logs[rec.log];
      log.base = base;
      log.next = 0;
      return log;
    }
    /// Drops the log of stream `k`, whose record is `rec`, with every
    /// entry it holds, then settles the stream: `rec` may be gone after.
    void close_log(TagKey k, OutRecord& rec) {
      if (rec.log != kNone) {
        auto& entries = logs[rec.log].entries;
        live -= entries.size();
        entries.clear();
        logs.give_back(rec.log);
        rec.log = kNone;
      }
      out.settle(k);
    }
  };

  class Registry;  // the run's per-rank states; logical_comm.cpp

  // Designated sender lane for my lane, for messages from `src_logical`.
  int designated_sender_lane(int src_logical) const;
  int lowest_alive_lane(int logical) const;

  /// send/irecv for any tag: the collectives' entry points.
  void post_send(int dst, int tag, std::span<const std::byte> bytes);
  LogicalRequest post_irecv(int src, int tag);

  template <support::TriviallyCopyable T>
  void coll_send(int dst, int tag, std::span<const T> v) {
    post_send(dst, tag, std::as_bytes(v));
  }

  /// Receives a collective's block into `out`, which it must fill exactly.
  template <support::TriviallyCopyable T>
  void coll_recv(int src, int tag, std::span<T> out) {
    LogicalRequest req = post_irecv(src, tag);
    wait(req);
    REPMPI_CHECK_MSG(req.data.size() == out.size_bytes(),
                     "collective block of " << req.data.size()
                         << " bytes, expected " << out.size_bytes()
                         << ": ranks passed different lengths");
    support::copy_into(req.data.span(), out);
  }

  void send_nack(int src_logical, int tag, std::uint64_t expected);
  /// Logs seq `seq` of send stream `k`, whose record is `rec`; `rec` may be
  /// gone after.
  void log_send(TagKey k, OutRecord& rec, std::uint64_t seq,
                const support::Payload& payload);
  /// Hands seq `seq` of stream `k` to `req`, advances the floor and settles
  /// the stream: `rec` may be gone after.
  void deliver(LogicalRequest& req, TagKey k, InRecord& rec,
               std::uint64_t seq, support::Payload data);

  /// Progress-agent body; static so it cannot touch the (stack-allocated)
  /// LogicalComm after the main process exits or crashes.
  static void agent_loop(sim::Context& ctx, mpi::World& world,
                         const ReplicaLayout& layout, int my_world,
                         SharedState& shared);

  mpi::Proc& proc_;
  ReplicaLayout layout_;
  int logical_;
  int lane_;
  std::unique_ptr<mpi::Comm> phys_;     ///< physical-rank channel (app data)
  std::unique_ptr<mpi::Comm> replica_comm_;

  Registry* registry_ = nullptr;  ///< null at degree 1
  SharedState* shared_ = nullptr;  ///< this rank's slot in the registry
  sim::Pid agent_pid_ = sim::kNoPid;
  int coll_tag_ = kCollTagBase;
  /// Backs reduce()'s accumulator and receive block; it keeps freed blocks
  /// for the next call, so a steady-state reduction allocates nothing.
  std::pmr::unsynchronized_pool_resource reduce_pool_;
  bool in_section_ = false;
};

// ---------------------------------------------------------------------------
// Collective templates: binomial reduce/bcast over the fault-tolerant
// logical p2p layer. Combine order is fixed so replicas stay send-
// deterministic.
// ---------------------------------------------------------------------------

template <support::TriviallyCopyable T>
void LogicalComm::bcast(std::span<T> data, int root) {
  const int n = size();
  const int tag = coll_tag_++;
  const int vrank = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int src = ((vrank - mask) + root) % n;
      coll_recv(src, tag, data);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (vrank + mask < n) {
      const int dst = ((vrank + mask) + root) % n;
      coll_send(dst, tag, std::span<const T>(data));
    }
    mask >>= 1;
  }
}

template <support::TriviallyCopyable T>
void LogicalComm::reduce(std::span<const T> in, std::span<T> out,
                         mpi::ReduceOp op, int root) {
  const int n = size();
  const int tag = coll_tag_++;
  const int vrank = (rank() - root + n) % n;
  std::pmr::vector<T> acc(in.begin(), in.end(), &reduce_pool_);
  std::pmr::vector<T> incoming(in.size(), &reduce_pool_);
  for (int mask = 1; mask < n; mask <<= 1) {
    if (vrank & mask) {
      coll_send(((vrank - mask) + root) % n, tag, std::span<const T>(acc));
      return;
    }
    const int vsrc = vrank + mask;
    if (vsrc < n) {
      coll_recv((vsrc + root) % n, tag, std::span<T>(incoming));
      for (std::size_t i = 0; i < acc.size(); ++i)
        acc[i] = mpi::apply_op(op, acc[i], incoming[i]);
      proc_.compute(net::ComputeCost{static_cast<double>(acc.size()),
                                     3.0 * acc.size() * sizeof(T)});
    }
  }
  REPMPI_CHECK_MSG(out.size() >= acc.size(), "reduce output span too small");
  std::copy(acc.begin(), acc.end(), out.begin());
}

template <support::TriviallyCopyable T>
void LogicalComm::allreduce(std::span<const T> in, std::span<T> out,
                            mpi::ReduceOp op) {
  // Only the root's `out` is written by reduce; bcast then fills the rest,
  // so every rank's `out` must hold the whole result.
  REPMPI_CHECK_MSG(out.size() >= in.size(), "allreduce output span too small");
  reduce(in, out, op, 0);
  bcast(out, 0);
}

}  // namespace repmpi::rep
