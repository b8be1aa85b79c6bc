#include "net/wire.h"

#include <concepts>
#include <type_traits>
#include <utility>

namespace whyprov::net {

namespace {

util::Status Malformed(std::string_view what) {
  return util::Status::InvalidArgument("malformed frame: " + std::string(what));
}

// --- field walks ----------------------------------------------------------
//
// Each frame kind's byte layout is written once, as Walk(io, frame) over
// its fields in wire order: Encode walks with a FieldWriter (appends each
// field), Decode with a FieldReader (reads it back, poisoning on
// underrun). Tail() guards fields appended after a frame first shipped:
// the writer always writes them, the reader only when bytes remain, so
// older frames decode with the defaults. Fail(what) rejects a decoded
// value the encoder never writes; the writer ignores it.

class FieldWriter {
 public:
  void U8(std::uint8_t value) { writer_.PutU8(value); }
  void U32(std::uint32_t value) { writer_.PutU32(value); }
  void U64(std::uint64_t value) { writer_.PutU64(value); }
  void F64(double value) { writer_.PutF64(value); }
  void Flag(int value) { writer_.PutU8(value != 0 ? 1 : 0); }
  void String(const std::string& value) { writer_.PutString(value); }
  void Strings(const std::vector<std::string>& values) {
    writer_.PutStringList(values);
  }
  /// u32 count, then `walk_element` over each element.
  template <typename T, typename WalkElement>
  void List(const std::vector<T>& values, WalkElement walk_element) {
    writer_.PutU32(static_cast<std::uint32_t>(values.size()));
    for (const T& value : values) walk_element(value);
  }

  bool Tail() const { return true; }
  void Fail(const char* /*what*/) {}

  std::string Take() { return writer_.Take(); }

 private:
  WireWriter writer_;
};

class FieldReader {
 public:
  explicit FieldReader(std::string_view body) : reader_(body) {}

  void U8(std::uint8_t& value) { reader_.GetU8(&value); }
  void U32(std::uint32_t& value) { reader_.GetU32(&value); }
  /// Also fills the C ABI's size_t counters, which travel as u64.
  template <typename Unsigned>
  void U64(Unsigned& value) {
    std::uint64_t wide = 0;
    if (reader_.GetU64(&wide)) value = static_cast<Unsigned>(wide);
  }
  void F64(double& value) { reader_.GetF64(&value); }
  /// Keeps the raw byte so the walk can Fail on anything but 0 or 1.
  void Flag(int& value) {
    std::uint8_t byte = 0;
    if (reader_.GetU8(&byte)) value = byte;
  }
  void String(std::string& value) { reader_.GetString(&value); }
  void Strings(std::vector<std::string>& values) {
    reader_.GetStringList(&values);
  }
  template <typename T, typename WalkElement>
  void List(std::vector<T>& values, WalkElement walk_element) {
    std::uint32_t count = 0;
    reader_.GetU32(&count);
    values.clear();
    // Stops at the first underrun, so a hostile count costs nothing.
    for (std::uint32_t i = 0; i < count && reader_.ok(); ++i) {
      walk_element(values.emplace_back());
    }
  }

  bool Tail() const { return !reader_.exhausted(); }
  void Fail(const char* what) {
    if (failure_ == nullptr) failure_ = what;
  }

  /// A decode succeeds only if no Fail fired, nothing ran short, and
  /// every byte was consumed.
  template <typename Frame>
  util::Result<Frame> Finish(Frame frame, const char* kind) const {
    if (failure_ != nullptr) return Malformed(failure_);
    if (!reader_.ok()) return Malformed(std::string("truncated ") + kind);
    if (!reader_.exhausted()) {
      return Malformed(std::string("trailing bytes after ") + kind);
    }
    return frame;
  }

 private:
  WireReader reader_;
  const char* failure_ = nullptr;
};

/// `F` is `Frame` as a walk sees it: const for the writer, mutable for
/// the reader.
template <typename F, typename Frame>
concept Is = std::same_as<std::remove_const_t<F>, Frame>;

/// The QoS identity every request frame appends: `qos_class` u8
/// (0 interactive / 1 batch; anything else is a protocol violation, not
/// a future lane) then `tenant`.
void WalkQosTail(auto& io, auto& frame) {
  if (!io.Tail()) return;  // pre-QoS frame: the defaults hold
  io.U8(frame.qos_class);
  io.String(frame.tenant);
  if (frame.qos_class > WHYPROV_QOS_BATCH) {
    io.Fail("non-canonical qos identity tail");
  }
}

void Walk(auto& io, Is<EnumerateFrame> auto& frame) {
  io.U64(frame.request_id);
  io.String(frame.target);
  io.U64(frame.max_members);
  io.F64(frame.deadline_seconds);
  io.U8(frame.stream);
  io.U32(frame.batch_size);
  WalkQosTail(io, frame);
}

void Walk(auto& io, Is<DecideFrame> auto& frame) {
  io.U64(frame.request_id);
  io.String(frame.target);
  io.U8(frame.tree_class);
  io.Strings(frame.candidate_facts);
  io.F64(frame.deadline_seconds);
  WalkQosTail(io, frame);
}

void Walk(auto& io, Is<ExplainFrame> auto& frame) {
  io.U64(frame.request_id);
  io.String(frame.target);
  io.U64(frame.member_index);
  io.F64(frame.deadline_seconds);
  WalkQosTail(io, frame);
}

void Walk(auto& io, Is<DeltaFrame> auto& frame) {
  io.U64(frame.request_id);
  io.Strings(frame.added_facts);
  io.Strings(frame.removed_facts);
  io.F64(frame.deadline_seconds);
  WalkQosTail(io, frame);
}

void Walk(auto& io, Is<StatsFrame> auto& frame) { io.U64(frame.request_id); }

void Walk(auto& io, Is<MembersFrame> auto& frame) {
  io.U64(frame.request_id);
  io.List(frame.members, [&](auto& member) { io.Strings(member); });
}

void Walk(auto& io, Is<FinalFrame> auto& frame) {
  io.U64(frame.request_id);
  io.U8(frame.status_code);
  io.String(frame.status_message);
  io.U8(frame.kind);
  io.U64(frame.model_version);
  switch (frame.kind) {
    case kFrameEnumerate:
      io.U64(frame.members_emitted);
      io.U8(frame.enumerate_flags);
      io.List(frame.members, [&](auto& member) { io.Strings(member); });
      break;
    case kFrameDecide:
      io.U8(frame.verdict);
      break;
    case kFrameExplain:
      io.U8(frame.has_explanation);
      if (frame.has_explanation) {
        io.Strings(frame.explanation_member);
        io.String(frame.proof_tree);
      }
      break;
    case kFrameDelta:
      io.U8(frame.has_delta);
      if (frame.has_delta) {
        io.U64(frame.delta.model_version);
        io.U64(frame.delta.facts_added);
        io.U64(frame.delta.facts_removed);
        io.U64(frame.delta.facts_derived);
        io.U64(frame.delta.facts_deleted);
        io.U64(frame.delta.facts_rederived);
        io.U64(frame.delta.facts_touched);
        io.U64(frame.delta.plans_retained);
        io.U64(frame.delta.plans_invalidated);
      }
      break;
    case kFrameStats:
      break;
    default:
      io.Fail("final frame with unknown request kind");
      break;
  }
}

void Walk(auto& io, Is<ErrorFrame> auto& frame) {
  io.U64(frame.request_id);
  io.U8(frame.status_code);
  io.String(frame.message);
}

void Walk(auto& io, Is<StatsReplyFrame> auto& frame) {
  auto& stats = frame.stats;
  io.U64(frame.request_id);
  io.U64(stats.submitted);
  io.U64(stats.rejected);
  io.U64(stats.completed);
  io.U64(stats.succeeded);
  io.U64(stats.cancelled);
  io.U64(stats.deadline_exceeded);
  io.U64(stats.failed);
  io.U64(stats.members_delivered);
  io.U64(stats.queue_depth);
  io.U64(stats.in_flight);
  io.F64(stats.queries_per_second);
  io.U64(stats.model_version);
  io.U64(stats.retained_snapshots);
  io.U64(stats.retained_snapshot_bytes);
  io.U64(stats.snapshot_evictions);
  io.Flag(stats.snapshot_alarm);
  // Fuzzing once found the decoder reading any non-zero byte as "alarm
  // set", which re-encodes as 1: only the bytes the writer emits decode.
  if (stats.snapshot_alarm > 1) {
    io.Fail("non-canonical snapshot_alarm flag");
  }
  io.U64(stats.version_skew);
  io.U64(stats.num_shards);
  io.U64(stats.wal_appends);
  io.U64(stats.wal_bytes);
  io.U64(stats.checkpoints_written);
  io.U64(stats.recovery_replayed_deltas);
  // Appended per-tenant section (u32 count + rows).
  if (!io.Tail()) return;
  io.List(frame.tenants, [&](auto& row) {
    io.String(row.tenant);
    io.U8(row.qos_class);
    if (row.qos_class > WHYPROV_QOS_BATCH) {
      io.Fail("non-canonical tenant stats lane");
    }
    io.U64(row.queued);
    io.U64(row.served);
    io.U64(row.rejected);
    io.U64(row.cancelled);
    io.F64(row.cost_served);
    io.F64(row.queue_p50_seconds);
    io.F64(row.queue_p99_seconds);
  });
  // Appended plan-simplify counters, after the tenant section.
  if (!io.Tail()) return;
  io.U64(stats.plans_simplified);
  io.U64(stats.simplify_vars_removed);
  io.U64(stats.simplify_clauses_removed);
  io.U64(stats.simplify_micros);
}

template <typename Frame>
std::string EncodeFrame(const Frame& frame) {
  FieldWriter writer;
  Walk(writer, frame);
  return writer.Take();
}

template <typename Frame>
util::Result<Frame> DecodeFrame(std::string_view body, const char* kind) {
  FieldReader reader(body);
  Frame frame;
  Walk(reader, frame);
  return reader.Finish(std::move(frame), kind);
}

}  // namespace

// --- framing ---------------------------------------------------------------

util::Status WriteFrame(util::Socket& socket, std::uint8_t type,
                        std::string_view body) {
  if (body.size() + 1 > kMaxFrameBytes) {
    return util::Status::InvalidArgument("frame exceeds kMaxFrameBytes");
  }
  const std::uint32_t length = static_cast<std::uint32_t>(body.size() + 1);
  std::string frame;
  frame.reserve(4 + length);
  for (int shift = 0; shift < 32; shift += 8) {
    frame.push_back(static_cast<char>((length >> shift) & 0xffu));
  }
  frame.push_back(static_cast<char>(type));
  frame.append(body.data(), body.size());
  return socket.SendAll(frame.data(), frame.size());
}

util::Status ReadFrame(util::Socket& socket, std::uint8_t* type,
                       std::string* body, std::uint32_t max_frame_bytes) {
  std::uint8_t header[4];
  if (auto status = socket.RecvAll(header, sizeof(header)); !status.ok()) {
    return status;  // kNotFound = clean EOF between frames
  }
  std::uint32_t length = 0;
  WireReader(header, sizeof(header)).GetU32(&length);
  if (length == 0) return Malformed("zero-length frame");
  if (length > max_frame_bytes) {
    return util::Status::InvalidArgument(
        "frame length " + std::to_string(length) + " exceeds the cap of " +
        std::to_string(max_frame_bytes) + " bytes");
  }
  std::string payload(length, '\0');
  if (auto status = socket.RecvAll(payload.data(), payload.size());
      !status.ok()) {
    // Even a clean EOF here is mid-frame: the length prefix promised
    // more bytes.
    return status.code() == util::StatusCode::kNotFound
               ? util::Status::Error("connection closed mid-frame")
               : status;
  }
  *type = static_cast<std::uint8_t>(payload[0]);
  body->assign(payload, 1, payload.size() - 1);
  return util::Status::Ok();
}

// --- encode/decode ---------------------------------------------------------

std::string Encode(const EnumerateFrame& frame) { return EncodeFrame(frame); }
std::string Encode(const DecideFrame& frame) { return EncodeFrame(frame); }
std::string Encode(const ExplainFrame& frame) { return EncodeFrame(frame); }
std::string Encode(const DeltaFrame& frame) { return EncodeFrame(frame); }
std::string Encode(const StatsFrame& frame) { return EncodeFrame(frame); }
std::string Encode(const MembersFrame& frame) { return EncodeFrame(frame); }
std::string Encode(const FinalFrame& frame) { return EncodeFrame(frame); }
std::string Encode(const ErrorFrame& frame) { return EncodeFrame(frame); }
std::string Encode(const StatsReplyFrame& frame) { return EncodeFrame(frame); }

util::Result<EnumerateFrame> DecodeEnumerate(std::string_view body) {
  return DecodeFrame<EnumerateFrame>(body, "enumerate body");
}
util::Result<DecideFrame> DecodeDecide(std::string_view body) {
  return DecodeFrame<DecideFrame>(body, "decide body");
}
util::Result<ExplainFrame> DecodeExplain(std::string_view body) {
  return DecodeFrame<ExplainFrame>(body, "explain body");
}
util::Result<DeltaFrame> DecodeDelta(std::string_view body) {
  return DecodeFrame<DeltaFrame>(body, "delta body");
}
util::Result<StatsFrame> DecodeStats(std::string_view body) {
  return DecodeFrame<StatsFrame>(body, "stats body");
}
util::Result<MembersFrame> DecodeMembers(std::string_view body) {
  return DecodeFrame<MembersFrame>(body, "members body");
}
util::Result<FinalFrame> DecodeFinal(std::string_view body) {
  return DecodeFrame<FinalFrame>(body, "final body");
}
util::Result<ErrorFrame> DecodeError(std::string_view body) {
  return DecodeFrame<ErrorFrame>(body, "error body");
}
util::Result<StatsReplyFrame> DecodeStatsReply(std::string_view body) {
  return DecodeFrame<StatsReplyFrame>(body, "stats reply body");
}

}  // namespace whyprov::net
