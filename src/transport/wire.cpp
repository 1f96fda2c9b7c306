#include "transport/wire.hpp"

#include <cstring>

namespace reconfnet::transport {
namespace {

// --- primitive little-endian writers/readers --------------------------------

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    for (int i = 0; i < 2; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

 private:
  std::vector<std::uint8_t>& out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

  std::uint8_t u8() { return take(1) ? bytes_[pos_ - 1] : 0; }
  std::uint16_t u16() { return take(2) ? get_le<std::uint16_t>(at(2)) : 0; }
  std::uint32_t u32() { return take(4) ? get_le<std::uint32_t>(at(4)) : 0; }
  std::uint64_t u64() { return take(8) ? get_le<std::uint64_t>(at(8)) : 0; }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

 private:
  /// The `count` bytes take() just consumed.
  const std::uint8_t* at(std::size_t count) const {
    return bytes_.data() + pos_ - count;
  }
  bool take(std::size_t count) {
    if (!ok_ || bytes_.size() - pos_ < count) {
      ok_ = false;
      return false;
    }
    pos_ += count;
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- kind-specific body sizes and codecs ------------------------------------

std::size_t state_bytes(const SamplerState& state) {
  std::size_t total = 4 + 1;  // seq + block count
  for (const auto& block : state.blocks) total += 4 + block.size() * 8;
  return total;
}

void write_state(Writer& w, const SamplerState& state) {
  w.i32(state.seq);
  w.u8(static_cast<std::uint8_t>(state.blocks.size()));
  for (const auto& block : state.blocks) {
    w.u32(static_cast<std::uint32_t>(block.size()));
    for (const std::uint64_t v : block) w.u64(v);
  }
}

bool read_state(Reader& r, SamplerState& state) {
  state.seq = r.i32();
  state.blocks.resize(r.u8());
  for (auto& block : state.blocks) {
    const std::size_t count = r.u32();
    if (!r.ok() || count > r.remaining() / 8) return false;
    block.reserve(count);
    for (std::size_t i = 0; i < count; ++i) block.push_back(r.u64());
  }
  return r.ok();
}

// The wire keeps the request fields (requester, j) and the response fields
// (vertex, j, ok) apart; the unused half of a frame is zero.
void write_super(Writer& w, const SuperMsg& super) {
  const bool request = super.is_request;
  w.u64(super.src);
  w.u64(super.dest);
  w.i32(super.seq);
  w.u32(super.index);
  w.u8(request ? 1 : 0);
  w.u64(request ? super.vertex : 0);
  w.i32(request ? super.j : 0);
  w.u64(request ? 0 : super.vertex);
  w.i32(request ? 0 : super.j);
  w.u8(super.ok ? 1 : 0);
}

bool read_super(Reader& r, SuperMsg& super) {
  super.src = r.u64();
  super.dest = r.u64();
  super.seq = r.i32();
  super.index = r.u32();
  super.is_request = r.u8() != 0;
  const std::uint64_t requester = r.u64();
  const std::int32_t request_j = r.i32();
  const std::uint64_t vertex = r.u64();
  const std::int32_t response_j = r.i32();
  super.vertex = super.is_request ? requester : vertex;
  super.j = super.is_request ? request_j : response_j;
  super.ok = r.u8() != 0;
  return r.ok();
}

void write_ids(Writer& w, const std::vector<sim::NodeId>& ids) {
  w.u32(static_cast<std::uint32_t>(ids.size()));
  for (const sim::NodeId id : ids) w.u64(id);
}

bool read_ids(Reader& r, std::vector<sim::NodeId>& ids) {
  const std::size_t count = r.u32();
  if (!r.ok() || count > r.remaining() / 8) return false;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) ids.push_back(r.u64());
  return r.ok();
}

std::size_t body_bytes(const Message& msg) {
  const Body& body = msg.contents();
  switch (msg.kind) {
    case MsgKind::kHeartbeat:
      return 0;  // the header's sender round is the whole heartbeat
    case MsgKind::kCandidate:
      return 8 + state_bytes(body.state) + 4 +
             body.outbox.size() * kSuperMsgBytes;
    case MsgKind::kStateBroadcast:
      return 8 + state_bytes(body.state);
    case MsgKind::kSuper:
      return kSuperMsgBytes;
    case MsgKind::kAssign:
      return 8 + 8;  // supernode + assigned
    case MsgKind::kNewGroup:
    case MsgKind::kNeighborGroup:
      return 8 + 4 + body.group.size() * 8;
    case MsgKind::kTableFrag: {
      std::size_t total = 4;
      for (const auto& entry : body.table) {
        total += 8 + 4 + entry.members.size() * 8;
      }
      return total;
    }
    case MsgKind::kCommitVote:
      return 8 + 1;  // supernode + complete bit
    case MsgKind::kLookup:
      return 8 + 8 + 8;  // key + origin + home supernode
    case MsgKind::kLookupReply:
      return 8 + 8;  // key + origin
  }
  return 0;
}

}  // namespace

const Body& Message::contents() const {
  static const Body kEmpty;
  return body != nullptr ? *body : kEmpty;
}

void Message::clear() { *this = Message{}; }

std::size_t encoded_bytes(const Message& msg) {
  return kFrameHeaderBytes + body_bytes(msg);
}

void encode(const Message& msg, std::vector<std::uint8_t>& out) {
  const Body& body = msg.contents();
  out.clear();
  out.reserve(encoded_bytes(msg));
  Writer w(out);
  w.u16(kWireMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(msg.kind));
  w.i64(msg.round);
  w.i64(msg.epoch);
  w.i32(msg.attempt);
  w.u32(static_cast<std::uint32_t>(body_bytes(msg)));
  switch (msg.kind) {
    case MsgKind::kHeartbeat:
      break;
    case MsgKind::kCandidate:
      w.u64(msg.supernode);
      write_state(w, body.state);
      w.u32(static_cast<std::uint32_t>(body.outbox.size()));
      for (const auto& super : body.outbox) write_super(w, super);
      break;
    case MsgKind::kStateBroadcast:
      w.u64(msg.supernode);
      write_state(w, body.state);
      break;
    case MsgKind::kSuper:
      write_super(w, msg.super);
      break;
    case MsgKind::kAssign:
      w.u64(msg.supernode);
      w.u64(msg.assigned);
      break;
    case MsgKind::kNewGroup:
    case MsgKind::kNeighborGroup:
      w.u64(msg.supernode);
      write_ids(w, body.group);
      break;
    case MsgKind::kTableFrag:
      w.u32(static_cast<std::uint32_t>(body.table.size()));
      for (const auto& entry : body.table) {
        w.u64(entry.supernode);
        write_ids(w, entry.members);
      }
      break;
    case MsgKind::kCommitVote:
      w.u64(msg.supernode);
      w.u8(msg.complete ? 1 : 0);
      break;
    case MsgKind::kLookup:
      w.u64(msg.key);
      w.u64(msg.origin);
      w.u64(msg.supernode);
      break;
    case MsgKind::kLookupReply:
      w.u64(msg.key);
      w.u64(msg.origin);
      break;
  }
}

bool decode(std::span<const std::uint8_t> bytes, Message& msg) {
  msg.clear();
  Reader r(bytes);
  if (r.u16() != kWireMagic) return false;
  if (r.u8() != kWireVersion) return false;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(MsgKind::kLookupReply)) return false;
  msg.kind = static_cast<MsgKind>(kind);
  msg.round = r.i64();
  msg.epoch = r.i64();
  msg.attempt = r.i32();
  const std::size_t body_size = r.u32();
  if (!r.ok() || body_size != r.remaining()) return false;
  // A frame with a body gets a fresh one: bodies are immutable once built.
  const auto fresh_body = [&msg]() -> Body& {
    auto body = std::make_shared<Body>();
    Body& contents = *body;
    msg.body = std::move(body);
    return contents;
  };
  switch (msg.kind) {
    case MsgKind::kHeartbeat:
      break;
    case MsgKind::kCandidate: {
      msg.supernode = r.u64();
      Body& body = fresh_body();
      if (!read_state(r, body.state)) return false;
      const std::size_t count = r.u32();
      if (!r.ok() || count > r.remaining() / kSuperMsgBytes) return false;
      body.outbox.resize(count);
      for (auto& super : body.outbox) {
        if (!read_super(r, super)) return false;
      }
      break;
    }
    case MsgKind::kStateBroadcast:
      msg.supernode = r.u64();
      if (!read_state(r, fresh_body().state)) return false;
      break;
    case MsgKind::kSuper:
      if (!read_super(r, msg.super)) return false;
      break;
    case MsgKind::kAssign:
      msg.supernode = r.u64();
      msg.assigned = r.u64();
      break;
    case MsgKind::kNewGroup:
    case MsgKind::kNeighborGroup:
      msg.supernode = r.u64();
      if (!read_ids(r, fresh_body().group)) return false;
      break;
    case MsgKind::kTableFrag: {
      const std::size_t count = r.u32();
      if (!r.ok() || count > r.remaining() / 12) return false;
      Body& body = fresh_body();
      body.table.resize(count);
      for (auto& entry : body.table) {
        entry.supernode = r.u64();
        if (!read_ids(r, entry.members)) return false;
      }
      break;
    }
    case MsgKind::kCommitVote:
      msg.supernode = r.u64();
      msg.complete = r.u8() != 0;
      break;
    case MsgKind::kLookup:
      msg.key = r.u64();
      msg.origin = r.u64();
      msg.supernode = r.u64();
      break;
    case MsgKind::kLookupReply:
      msg.key = r.u64();
      msg.origin = r.u64();
      break;
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace reconfnet::transport
