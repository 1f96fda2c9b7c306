// Deterministic little-endian wire codec for the Section 5 node-level
// protocol (DESIGN.md §15).
//
// One Message struct covers every frame the per-node protocol exchanges; the
// codec writes a fixed header (magic, version, kind, sender round, epoch,
// attempt) followed by a kind-specific body. Encoding is a pure function of
// the Message — no padding, no host-order leaks — so the same Message
// serializes to the same bytes in every process. In process the typed
// Message travels as is, its bulky Body shared by handle; only the UDP edge
// encodes. NodeProtocol meters 8 * encoded_bytes per frame on both paths,
// so the wire bits agree between them by construction.
//
// The frame layout is pinned in tools/protocheck/protocol.toml (transport.*
// constants); changing a field width here without updating the spec fails
// the protocheck gate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/types.hpp"

namespace reconfnet::transport {

// Frame-format constants, pinned by tools/protocheck/protocol.toml.
inline constexpr std::uint16_t kWireMagic = 0x5243;  // "RC"
inline constexpr std::uint8_t kWireVersion = 2;
/// Frame header: magic(2) + version(1) + kind(1) + sender round(8) +
/// epoch(8) + attempt(4) + payload length(4).
inline constexpr std::size_t kFrameHeaderBytes = 28;

/// Fixed-width little-endian integers: the byte order of every frame and
/// link-header field.
template <typename T>
void put_le(std::uint8_t* out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out[i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}
template <typename T>
[[nodiscard]] T get_le(const std::uint8_t* in) {
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value = static_cast<T>(value | (static_cast<T>(in[i]) << (8 * i)));
  }
  return value;
}
inline constexpr std::uint64_t kFrameHeaderBits = kFrameHeaderBytes * 8;
/// One supernode-level sampler message on the wire: src(8) + dest(8) +
/// seq(4) + index(4) + is_request(1) + request(8 + 4) + response(8 + 4 + 1).
inline constexpr std::size_t kSuperMsgBytes = 50;

enum class MsgKind : std::uint8_t {
  kHeartbeat = 0,       ///< liveness + epoch position (pacer input)
  kCandidate = 1,       ///< sim round: candidate state + supernode outbox
  kStateBroadcast = 2,  ///< sync round: adopted state rebroadcast
  kSuper = 3,           ///< one forwarded supernode-level sampler message
  kAssign = 4,          ///< reorg A: node -> sampled supernode
  kNewGroup = 5,        ///< reorg B: fresh membership of one supernode
  kNeighborGroup = 6,   ///< reorg C: neighbor group forwarded to new members
  kTableFrag = 7,       ///< all-gather: partial new group table
  kCommitVote = 8,      ///< commit round: table-completeness vote
  kLookup = 9,          ///< DHT smoke: greedy bit-fixing lookup
  kLookupReply = 10,    ///< DHT smoke: home-group answer to the origin
};

/// A replicated sampler snapshot: the primitive-round counter plus the raw
/// multiset blocks (blocks[j-1] = M_j). A replica rebuilds its
/// HypercubeSamplerCore from (dimension, supernode, schedule) — all derivable
/// from the shared group table — via restore_blocks().
struct SamplerState {
  std::int32_t seq = 0;
  std::vector<std::vector<std::uint64_t>> blocks;

  friend bool operator==(const SamplerState&, const SamplerState&) = default;
};

/// One supernode-level sampler message: a request for block j (vertex = the
/// requesting supernode) or its response (vertex = the spliced walk
/// endpoint, ok = the partner block had an entry). The wire keeps separate
/// request and response fields (kSuperMsgBytes); in memory they share one
/// slot, since a frame is one or the other.
struct SuperMsg {
  std::uint64_t src = 0;
  std::uint64_t dest = 0;
  std::uint64_t vertex = 0;
  std::int32_t seq = 0;
  std::uint32_t index = 0;
  std::int32_t j = 0;
  bool is_request = false;
  bool ok = false;

  friend bool operator==(const SuperMsg&, const SuperMsg&) = default;
};

/// One (supernode, members) entry of the all-gathered new group table.
struct TableEntry {
  std::uint64_t supernode = 0;
  std::vector<sim::NodeId> members;

  friend bool operator==(const TableEntry&, const TableEntry&) = default;
};

/// The bulky part of a frame, immutable once sent. A sender builds it once
/// per round and every recipient shares it, so in process a frame fans out
/// by copying a handle, never the contents; only the UDP edge serializes it.
/// `Message::kind` selects the meaningful members.
struct Body {
  SamplerState state;              ///< candidate / broadcast
  std::vector<SuperMsg> outbox;    ///< candidate
  std::vector<sim::NodeId> group;  ///< new-group / neighbor-group
  std::vector<TableEntry> table;   ///< table fragment
};
using BodyPtr = std::shared_ptr<const Body>;

/// Every protocol frame. `kind` selects which fields are meaningful (and
/// which the codec serializes); the rest stay default-initialized.
struct Message {
  MsgKind kind = MsgKind::kHeartbeat;
  bool complete = false;      ///< commit vote
  std::int32_t attempt = 0;   ///< retry attempt within the epoch
  sim::Round round = 0;       ///< sender's round when the frame was sent
  std::int64_t epoch = 0;     ///< reconfiguration epoch the frame belongs to

  std::uint64_t supernode = 0;            ///< state/assign/group/vote frames
  sim::NodeId assigned = sim::kNoNode;    ///< assign
  std::uint64_t key = 0;                  ///< lookup / reply
  sim::NodeId origin = sim::kNoNode;      ///< lookup / reply
  SuperMsg super{};                       ///< super
  // reconfnet-protocheck: allow(RNP307) shared immutable body: the codec
  // serializes its contents (write_state/write_ids), never the handle
  BodyPtr body;  ///< candidate / broadcast / group / table frames

  /// The frame's body, or an empty one when it carries none.
  [[nodiscard]] const Body& contents() const;
  void clear();
};

/// Exact serialized size of `msg` in bytes (header included) without
/// encoding: NodeProtocol's wire-bit accounting, in process and over UDP.
[[nodiscard]] std::size_t encoded_bytes(const Message& msg);

/// Serializes `msg` into `out` (cleared first; capacity is recycled, so the
/// steady-state path allocates nothing once warm).
void encode(const Message& msg, std::vector<std::uint8_t>& out);

/// Parses one frame into `msg` (cleared first). A frame with a body gets a
/// freshly allocated one; the others allocate nothing. Returns false on any
/// malformed input — short buffer, bad magic/version, truncated body,
/// trailing bytes — leaving `msg` unspecified but valid.
[[nodiscard]] bool decode(std::span<const std::uint8_t> bytes, Message& msg);

}  // namespace reconfnet::transport
