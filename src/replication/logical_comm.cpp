#include "replication/logical_comm.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/log.hpp"

namespace repmpi::rep {

namespace {
std::vector<int> identity_members(int n) {
  std::vector<int> m(static_cast<std::size_t>(n));
  std::iota(m.begin(), m.end(), 0);
  return m;
}

/// Watermark of a sender lane none of whose receiver lanes is alive.
constexpr std::uint64_t kNoReader = ~std::uint64_t{0};
}  // namespace

/// The run's replication state: every physical rank's SharedState, plus the
/// floor notices a sharded run defers to the window boundary. The world
/// owns it (see mpi::LayerState).
class LogicalComm::Registry final : public mpi::LayerState {
 public:
  Registry(mpi::World& world, const ReplicaLayout& layout)
      : world_(world),
        layout_(layout),
        ranks_(static_cast<std::size_t>(world.num_ranks())),
        notices_(static_cast<std::size_t>(world.num_shards())) {}

  const ReplicaLayout& layout() const { return layout_; }
  SharedState& at(int world_rank) {
    return ranks_[static_cast<std::size_t>(world_rank)];
  }
  const std::vector<SharedState>& ranks() const { return ranks_; }

  /// Receiver `recv_world`'s published floor for `stream` rose. The classic
  /// engine trims at once; a sharded run defers the trim to the window
  /// boundary, because the sender lanes may run on other shards' threads.
  void floor_advanced(int recv_world, TagKey stream) {
    if (!world_.sharded()) {
      publish(recv_world, stream);
      return;
    }
    auto& box = notices_[static_cast<std::size_t>(sim::current_shard())];
    const Notice n{recv_world, stream};
    if (box.empty() || box.back() != n) box.push_back(n);
  }

  void at_boundary() override {
    for (auto& box : notices_) {
      for (const Notice& n : box) publish(n.recv_world, n.stream);
      box.clear();
    }
  }

 private:
  struct Notice {
    int recv_world = 0;
    TagKey stream = 0;
    bool operator==(const Notice&) const = default;
  };

  void publish(int recv_world, TagKey stream);
  std::uint64_t watermark(int dst, int sender_lane, TagKey stream) const;
  void trim(int sender_world, TagKey k, std::uint64_t w);

  mpi::World& world_;
  const ReplicaLayout layout_;
  std::vector<SharedState> ranks_;
  std::vector<std::vector<Notice>> notices_;  ///< per shard
};

/// Trims, below their new watermarks, the logs that the sender lanes of
/// `stream`'s source keep for receiver `recv_world`'s logical rank.
void LogicalComm::Registry::publish(int recv_world, TagKey stream) {
  const int dst = layout_.logical_of(recv_world);
  const int src = static_cast<int>(stream >> 32);
  const TagKey k =
      key(dst, static_cast<int>(static_cast<std::uint32_t>(stream)));
  const int recv_lane = layout_.lane_of(recv_world);
  for (int lane = 0; lane < layout_.degree; ++lane) {
    if (lane == recv_lane) continue;
    trim(layout_.phys_rank(src, lane), k, watermark(dst, lane, stream));
  }
}

/// Lowest published floor for `stream` over the alive lanes of `dst` that
/// sender lane `sender_lane` could replay to (every lane but its own);
/// kNoReader when none of them is alive.
std::uint64_t LogicalComm::Registry::watermark(int dst, int sender_lane,
                                               TagKey stream) const {
  std::uint64_t w = kNoReader;
  for (int j = 0; j < layout_.degree && w > 0; ++j) {
    const int r = layout_.phys_rank(dst, j);
    if (j == sender_lane || world_.is_dead(r)) continue;
    const InRecord* rec = ranks_[static_cast<std::size_t>(r)].in.find(stream);
    w = std::min(w, rec == nullptr ? 0 : rec->published());
  }
  return w;
}

void LogicalComm::Registry::trim(int sender_world, TagKey k,
                                 std::uint64_t w) {
  SharedState& st = at(sender_world);
  // A dead sender's agent died with it; with no alive reader, nobody NACKs.
  if (w == kNoReader || world_.is_dead(sender_world)) {
    if (OutRecord* rec = st.out.find(k)) st.close_log(k, *rec);
    return;
  }
  if (w == 0) return;
  OutRecord& rec = st.out[k];
  if (rec.log == kNone) {
    // The sender lags the receivers: keep the watermark for its sends.
    st.open_log(rec, w);
    return;
  }
  SendLog& log = st.logs[rec.log];
  if (w <= log.base) return;
  log.base = w;
  auto& entries = log.entries;
  const auto kept = std::find_if(
      entries.begin(), entries.end(),
      [w](const LoggedMsg& m) { return m.seq >= w; });
  st.live -= static_cast<std::uint64_t>(kept - entries.begin());
  entries.erase(entries.begin(), kept);
  if (entries.empty() && log.base <= log.next) st.close_log(k, rec);
}

LogicalComm::LogicalComm(mpi::Proc& proc, ReplicaLayout layout)
    : proc_(proc), layout_(layout) {
  REPMPI_CHECK(layout_.num_logical > 0 && layout_.degree >= 1);
  REPMPI_CHECK_MSG(proc.world().num_ranks() == layout_.num_physical(),
                   "world size " << proc.world().num_ranks()
                                 << " != layout physical count "
                                 << layout_.num_physical());
  logical_ = layout_.logical_of(proc.world_rank());
  lane_ = layout_.lane_of(proc.world_rank());

  phys_ = std::make_unique<mpi::Comm>(
      proc, kLogicalChannel, identity_members(layout_.num_physical()));

  std::vector<int> lanes;
  lanes.reserve(static_cast<std::size_t>(layout_.degree));
  for (int k = 0; k < layout_.degree; ++k)
    lanes.push_back(layout_.phys_rank(logical_, k));
  replica_comm_ = std::make_unique<mpi::Comm>(
      proc, mpi::Comm::derive_channel(kReplicaChannelBase,
                                      static_cast<std::uint64_t>(logical_)),
      std::move(lanes));

  if (replicated()) {
    registry_ = &proc_.world().layer_state<Registry>(proc_.world(), layout_);
    REPMPI_CHECK_MSG(registry_->layout().num_logical == layout_.num_logical &&
                         registry_->layout().degree == layout_.degree,
                     "every rank of a world must share one replica layout");
    shared_ = &registry_->at(proc_.world_rank());
    // The progress agent models the MPI library's async progress thread: it
    // serves replay requests even while the main thread is blocked.
    SharedState* shared = shared_;
    mpi::World* world = &proc_.world();
    const ReplicaLayout lay = layout_;
    const int my_world = proc_.world_rank();
    agent_pid_ = proc_.world().sim_of(my_world).spawn(
        "agent" + std::to_string(my_world),
        [shared, world, lay, my_world](sim::Context& ctx) {
          agent_loop(ctx, *world, lay, my_world, *shared);
        });
    proc_.world().register_companion(my_world, agent_pid_);
  }
}

mpi::Comm& LogicalComm::replica_comm() { return *replica_comm_; }

void LogicalComm::alive_lanes(int logical, std::vector<int>& out) const {
  out.clear();
  for (int k = 0; k < layout_.degree; ++k) {
    if (!proc_.world().is_dead(layout_.phys_rank(logical, k)))
      out.push_back(k);
  }
}

int LogicalComm::lowest_alive_lane(int logical) const {
  for (int k = 0; k < layout_.degree; ++k) {
    if (!proc_.world().is_dead(layout_.phys_rank(logical, k))) return k;
  }
  return -1;
}

int LogicalComm::designated_sender_lane(int src_logical) const {
  if (!proc_.world().is_dead(layout_.phys_rank(src_logical, lane_)))
    return lane_;
  return lowest_alive_lane(src_logical);
}

// --- send -------------------------------------------------------------------

void LogicalComm::send(int dst, int tag, std::span<const std::byte> bytes) {
  REPMPI_CHECK_MSG(tag < kCollTagBase,
                   "tag " << tag << " is in the collectives' tag space");
  post_send(dst, tag, bytes);
}

void LogicalComm::post_send(int dst, int tag,
                            std::span<const std::byte> bytes) {
  REPMPI_CHECK_MSG(!in_section_,
                   "message passing inside an intra-parallel section "
                   "violates Definition 1");
  REPMPI_CHECK_MSG(dst >= 0 && dst < size(), "invalid logical dst " << dst);
  REPMPI_CHECK_MSG(tag >= 0, "negative tags are reserved");
  if (!replicated()) {
    phys_->send(dst, tag, bytes);
    return;
  }

  const TagKey k = key(dst, tag);
  OutRecord& rec = shared_->out[k];
  const std::uint64_t seq = rec.sent++;

  // One capture of header + body; the log entry and every lane transmission
  // below share it by reference.
  const MsgHeader hdr{seq};
  support::Payload payload =
      support::Payload::concat(support::as_bytes_of(hdr), bytes);
  log_send(k, rec, seq, payload);  // `rec` is not used past this

  // Replication-protocol bookkeeping (ordering metadata, envelope checks).
  proc_.elapse(proc_.world().model().replication_msg_overhead);

  for (int j = 0; j < layout_.degree; ++j) {
    // I transmit to receiver lane j iff I am its designated sender: lane j
    // of my own group if alive, otherwise my group's lowest-alive lane.
    const bool sender_lane_dead =
        proc_.world().is_dead(layout_.phys_rank(logical_, j));
    const int responsible =
        sender_lane_dead ? lowest_alive_lane(logical_) : j;
    if (responsible != lane_) continue;
    const int dst_phys = layout_.phys_rank(dst, j);
    if (proc_.world().is_dead(dst_phys)) continue;
    phys_->send_payload(dst_phys, tag, payload);
  }
}

void LogicalComm::log_send(TagKey k, OutRecord& rec, std::uint64_t seq,
                           const support::Payload& payload) {
  const int dst = static_cast<int>(k >> 32);
  bool reader = false;
  for (int j = 0; j < layout_.degree && !reader; ++j)
    reader = j != lane_ && !proc_.world().is_dead(layout_.phys_rank(dst, j));
  if (!reader) {  // no lane of dst can ever NACK this lane for the stream
    shared_->close_log(k, rec);
    return;
  }
  // A fresh log starts at this seq: every earlier one was dropped.
  SendLog& log = rec.log == kNone ? shared_->open_log(rec, seq)
                                  : shared_->logs[rec.log];
  log.next = seq + 1;
  if (seq < log.base) {  // every receiver lane already passed it
    if (log.base <= log.next) shared_->close_log(k, rec);
    return;
  }
  log.entries.push_back(LoggedMsg{seq, payload});
  shared_->peak = std::max(shared_->peak, ++shared_->live);
}

// --- recv -------------------------------------------------------------------

LogicalRequest LogicalComm::irecv(int src, int tag) {
  REPMPI_CHECK_MSG(tag < kCollTagBase,
                   "tag " << tag << " is in the collectives' tag space");
  return post_irecv(src, tag);
}

LogicalRequest LogicalComm::post_irecv(int src, int tag) {
  REPMPI_CHECK_MSG(!in_section_,
                   "message passing inside an intra-parallel section "
                   "violates Definition 1");
  REPMPI_CHECK_MSG(src >= 0 && src < size(), "invalid logical src " << src);
  REPMPI_CHECK_MSG(tag >= 0, "negative tags are reserved");
  LogicalRequest req;
  req.src_logical = src;
  req.tag = tag;
  if (!replicated()) {
    req.phys = phys_->irecv(src, tag);
    return req;
  }
  req.expected_seq = shared_->in[key(src, tag)].posted++;
  return req;
}

mpi::Status LogicalComm::wait(LogicalRequest& req) {
  REPMPI_CHECK(req.valid());
  if (req.done) return req.status;
  if (!replicated()) {
    req.status = phys_->wait(req.phys);
    req.data = std::move(req.phys.state().data);
    req.done = true;
    return req.status;
  }

  const TagKey k = key(req.src_logical, req.tag);
  InRecord& rec = *shared_->in.find(k);  // irecv made it; only we insert
  for (;;) {
    // Deliver from the out-of-order stash when possible.
    if (rec.reorder != kNone) {
      auto& stash = shared_->reorders[rec.reorder].stash;
      if (auto it = stash.find(req.expected_seq); it != stash.end()) {
        support::Payload data = std::move(it->second);
        stash.erase(it);
        deliver(req, k, rec, req.expected_seq, std::move(data));
        return req.status;
      }
    }

    // Pump one physical message for this (source, tag) stream. When we are
    // served by a cover lane (our lane-partner died), request a replay of
    // everything from the floor once per cover: the cover may have sent
    // part of the stream before it learned of the death.
    const int d = designated_sender_lane(req.src_logical);
    if (d < 0) throw LogicalProcessLost(req.src_logical);
    REPMPI_DEBUG("wait: logical " << logical_ << " lane " << lane_
                                  << " pumping src " << req.src_logical
                                  << " tag " << req.tag << " expected "
                                  << req.expected_seq << " designated lane "
                                  << d);
    if (d != lane_ && rec.nacked_lane != d) {
      rec.nack_floor = std::min(rec.nack_floor, rec.floor);
      send_nack(req.src_logical, req.tag, rec.floor);
      rec.nacked_lane = d;
    }
    const int src_phys = layout_.phys_rank(req.src_logical, d);
    mpi::Request pump = phys_->irecv(src_phys, req.tag);
    mpi::Status st = phys_->wait(pump);
    if (st.failed) {
      // Designated sender died mid-wait; drop its stale traffic and loop:
      // the next iteration fails over (and NACKs the new cover).
      proc_.world().purge_unexpected(proc_.world_rank(), kLogicalChannel,
                                     src_phys);
      continue;
    }

    const support::Payload raw = std::move(pump.state().data);
    REPMPI_CHECK(raw.size() >= sizeof(MsgHeader));
    MsgHeader hdr;
    std::memcpy(&hdr, raw.data(), sizeof(hdr));
    // A shared view past the header: the body is never copied.
    support::Payload body = raw.suffix(sizeof(MsgHeader));
    if (hdr.seq == req.expected_seq) {  // in order: no stash round trip
      deliver(req, k, rec, hdr.seq, std::move(body));
      return req.status;
    }
    // Ahead of its turn: stash it, unless it is a duplicate from
    // replay/cover overlap (already delivered or stashed), which is dropped.
    if (hdr.seq < rec.floor) continue;
    if (rec.reorder == kNone) rec.reorder = shared_->reorders.take();
    Reorder& ro = shared_->reorders[rec.reorder];
    if (!ro.delivered.contains(hdr.seq))
      ro.stash.emplace(hdr.seq, std::move(body));
  }
}

void LogicalComm::deliver(LogicalRequest& req, TagKey k, InRecord& rec,
                          std::uint64_t seq, support::Payload data) {
  req.data = std::move(data);
  req.done = true;
  req.status.bytes = req.data.size();
  req.status.failed = false;
  if (seq != rec.floor) {  // completes above the floor: remember it
    if (rec.reorder == kNone) rec.reorder = shared_->reorders.take();
    shared_->reorders[rec.reorder].delivered.insert(seq);
    return;
  }
  ++rec.floor;
  if (rec.reorder != kNone) {
    Reorder& ro = shared_->reorders[rec.reorder];
    while (ro.delivered.erase(rec.floor) != 0) ++rec.floor;
    if (ro.delivered.empty() && ro.stash.empty()) {
      shared_->reorders.give_back(rec.reorder);
      rec.reorder = kNone;
    }
  }
  if (rec.published() == rec.floor)
    registry_->floor_advanced(proc_.world_rank(), k);
  shared_->in.settle(k);
}

mpi::Status LogicalComm::recv(int src, int tag, support::Buffer& out) {
  LogicalRequest req = irecv(src, tag);
  mpi::Status st = wait(req);
  out = std::move(req.data).take_buffer();
  return st;
}

void LogicalComm::send_nack(int src_logical, int tag,
                            std::uint64_t expected) {
  const int cover = lowest_alive_lane(src_logical);
  if (cover < 0) throw LogicalProcessLost(src_logical);
  ControlMsg msg;
  msg.type = ControlMsg::Type::kNack;
  msg.requester_logical = logical_;
  msg.requester_lane = lane_;
  msg.tag = tag;
  msg.expected_seq = expected;
  // Charged as Comm::send charges it; every NACK lands in the cover
  // agent's one mailbox key, the requester riding in the body.
  proc_.context().delay(proc_.world().model().send_overhead);
  proc_.world().send_bytes(proc_.world_rank(),
                           layout_.phys_rank(src_logical, cover),
                           kControlChannel, kNackMailboxSource, kControlTag,
                           support::as_bytes_of(msg));
  REPMPI_DEBUG("logical " << logical_ << " lane " << lane_ << " NACK to "
                          << src_logical << " lane " << cover << " tag " << tag
                          << " from seq " << expected);
}

// --- Progress agent ----------------------------------------------------------

void LogicalComm::agent_loop(sim::Context& ctx, mpi::World& world,
                             const ReplicaLayout& layout, int my_world,
                             SharedState& shared) {
  const auto& model = world.model();
  for (;;) {
    auto st = mpi::make_request_state();
    st->owner = ctx.pid();
    st->comm_channel = kControlChannel;
    st->match_source = kNackMailboxSource;
    st->match_tag = kControlTag;
    world.post_recv(my_world, mpi::kNoPeer, st);
    ctx.set_wait_token(st.get());
    while (!st->done) ctx.park();
    ctx.set_wait_token(nullptr);
    if (st->status.failed) continue;
    ctx.delay(model.recv_overhead);

    const ControlMsg msg = support::from_buffer<ControlMsg>(st->data);
    // Replay logged messages for the requesting stream from expected_seq on.
    const TagKey k = key(msg.requester_logical, msg.tag);
    const int dst_phys =
        layout.phys_rank(msg.requester_logical, msg.requester_lane);
    if (world.is_dead(dst_phys)) continue;
    const OutRecord* rec = std::as_const(shared.out).find(k);
    // Seqs below the log's base are gone; without a log, every seq sent so
    // far is. The trimming rule must never drop one a NACK asks for.
    std::uint64_t base = 0;
    if (rec != nullptr) {
      base = rec->log == kNone ? rec->sent : shared.logs[rec->log].base;
    }
    REPMPI_CHECK_MSG(msg.expected_seq >= base,
                     "NACK from world rank " << dst_phys << " for tag "
                                             << msg.tag << " asks for seq "
                                             << msg.expected_seq
                                             << ", but the log starts at "
                                             << base);
    if (rec == nullptr || rec->log == kNone) continue;
    // Snapshot the payloads before the first delay: while the agent yields,
    // the main fiber may append to this log, trims may shrink or close it,
    // and inserts and settles may move `rec`.
    std::vector<support::Payload> replay;
    for (const LoggedMsg& lm : shared.logs[rec->log].entries) {
      if (lm.seq >= msg.expected_seq) replay.push_back(lm.payload);
    }
    for (support::Payload& payload : replay) {
      ctx.delay(model.send_overhead);
      world.send_payload(my_world, dst_phys, kLogicalChannel,
                         /*src_comm_rank=*/my_world, msg.tag,
                         std::move(payload));
      ++shared.replayed;
    }
  }
}

LogicalComm::LogStats LogicalComm::log_stats(const mpi::World& world) {
  LogStats out;
  const auto* registry = dynamic_cast<const Registry*>(world.layer());
  if (registry == nullptr) return out;
  for (const SharedState& s : registry->ranks()) {
    out.high_water += s.peak;
    out.live += s.live;
    out.replayed += s.replayed;
    out.streams += s.in.opened();
    out.held += s.in.held() + s.out.held();
  }
  return out;
}

}  // namespace repmpi::rep
