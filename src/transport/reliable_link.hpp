// Per-peer reliable datagram channel for the UDP transport (DESIGN.md §15).
//
// UDP loses, duplicates and reorders; the protocol frames (everything except
// heartbeats) need at-most-once delivery. Each (local node, peer) pair gets
// one ReliableLink: the shared reliability core (fault/reliable_core.hpp)
// clocked in microseconds — a ReliableSender staging full datagrams and
// abandoning them loudly (typed counter, surfaced in the node metrics) once
// max_retries transmissions went unacked, and a ReliableReceiver deduping the
// peer's datagrams — plus the 20-byte link header and the incarnation checks.
//
// Incarnations make restarts safe: a rebooted process bumps its incarnation,
// the receiver resets its dedup state on the first higher-incarnation
// datagram, and stale acks or data from the previous life are ignored — the
// live analog of fault::ReliableChannel's reset quarantine. A sender whose
// sequence space wraps treats that as a restart of its own half of the link:
// it abandons what is in flight and moves to the next incarnation, so the
// peer's dedup starts over instead of dropping reused numbers.
//
// The class is socket-free and clock-free (timestamps are passed in), so
// tests drive it directly; the UDP transport owns the sockets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fault/reliable_core.hpp"
#include "sim/types.hpp"

namespace reconfnet::transport {

// Link-layer datagram header, pinned by tools/protocheck/protocol.toml:
// magic(2) + version(1) + op(1) + from(8) + incarnation(4) + seq(4).
inline constexpr std::uint16_t kLinkMagic = 0x4C52;  // "RL"
inline constexpr std::uint8_t kLinkVersion = 1;
inline constexpr std::size_t kLinkHeaderBytes = 20;

enum class LinkOp : std::uint8_t {
  kUnreliable = 0,  ///< fire-and-forget payload (heartbeats)
  kReliable = 1,    ///< payload needing an ack
  kAck = 2,         ///< ack for `seq` (no payload)
};

struct LinkHeader {
  LinkOp op = LinkOp::kUnreliable;
  sim::NodeId from = sim::kNoNode;
  std::uint32_t incarnation = 0;
  std::uint32_t seq = 0;
};

/// Writes the 20-byte header at `out` (must have room).
void encode_link_header(const LinkHeader& header, std::uint8_t* out);
/// Parses a header; false on short input, bad magic or version.
[[nodiscard]] bool decode_link_header(std::span<const std::uint8_t> bytes,
                                      LinkHeader& header);

struct LinkConfig {
  std::int64_t initial_timeout_us = 40'000;
  std::int64_t backoff_cap_us = 640'000;
  int max_retries = 10;  ///< transmissions before abandoning (>= 1)
};

class ReliableLink {
 public:
  struct Counters {
    std::uint64_t staged = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t acked = 0;
    std::uint64_t abandoned = 0;      ///< gave up (retry budget, seq wrap)
    std::uint64_t canceled = 0;       ///< dropped by cancel_stale()
    std::uint64_t delivered = 0;      ///< fresh incoming reliable datagrams
    std::uint64_t duplicates = 0;     ///< deduplicated incoming datagrams
    std::uint64_t stale_incarnation = 0;  ///< old-life data or acks dropped
  };

  /// `seq_bits` is the sequence width the sender wraps at: the header's 32
  /// bits, shrunk by tests to reach the wrap without 2^32 stages.
  ReliableLink(LinkConfig config, sim::NodeId self, std::uint32_t incarnation,
               std::uint64_t seq_bits = 32);

  /// Sender half: wraps `payload` in a reliable-data header under a fresh
  /// sequence number and stages it for (re)transmission. The first
  /// transmission happens at the next for_due() call. `tag` rides along
  /// untouched and is handed back on every transmission attempt — the UDP
  /// transport stores the frame's protocol round there so fault-plan drop
  /// decisions stay pure in the frame's ORIGINAL round (a retransmission of
  /// a partition-dropped frame is dropped again, exactly like the
  /// in-process injector's permanent drop).
  std::uint32_t stage(std::span<const std::uint8_t> payload,
                      std::int64_t now_us, std::int64_t tag = 0);

  /// Sender half: invokes fn(bytes, attempt, tag) for every staged datagram
  /// due at `now_us` (attempt 0 = first transmission) and re-arms its
  /// backoff. Datagrams out of transmissions are abandoned and counted
  /// instead.
  template <typename Fn>
  void for_due(std::int64_t now_us, Fn&& fn) {
    sender_.for_due(
        now_us,
        [&](std::uint64_t, const Pending& entry) {
          fn(std::span<const std::uint8_t>(entry.item.datagram),
             static_cast<std::uint32_t>(entry.transmissions), entry.item.tag);
          if (entry.transmissions > 0) ++counters_.retransmits;
        },
        abandon_fn());
  }

  /// Sender half: an ack for `seq` arrived from the peer.
  void on_ack(std::uint32_t seq, std::uint32_t incarnation);

  /// Sender half: drops every pending datagram whose tag is below
  /// `before_tag`. The runtime calls this when the pacer forces a round
  /// advance: a frame that could not be delivered inside its round is dead
  /// weight (the receiver would reject it as late), so giving it up mirrors
  /// the simulator's permanent synchronous drop. Returns the number dropped.
  std::size_t cancel_stale(std::int64_t before_tag);

  /// Receiver half: a reliable datagram (seq, incarnation) arrived from the
  /// peer. Returns true iff it is fresh and should be delivered; an ack is
  /// queued either way (unless the incarnation is stale).
  [[nodiscard]] bool on_data(std::uint32_t seq, std::uint32_t incarnation);

  /// Receiver half: invokes fn(seq) for every queued ack and clears the
  /// queue. The caller sends the ack datagrams.
  template <typename Fn>
  void drain_acks(Fn&& fn) {
    for (const std::uint32_t seq : ack_queue_) fn(seq);
    ack_queue_.clear();
  }

  [[nodiscard]] std::size_t pending() const { return sender_.size(); }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  [[nodiscard]] std::uint32_t peer_incarnation() const {
    return peer_incarnation_;
  }

 private:
  /// One staged datagram: header + payload, ready to send, and the caller
  /// context (the frame's protocol round).
  struct Outgoing {
    std::vector<std::uint8_t> datagram;
    std::int64_t tag = 0;
  };
  using Pending = fault::ReliableSender<Outgoing>::Pending;

  /// The sender core's abandon callback: a cancel counts as canceled,
  /// everything else as abandoned.
  [[nodiscard]] auto abandon_fn() {
    return [this](std::uint64_t, const Pending&,
                  fault::AbandonReason reason) {
      if (reason == fault::AbandonReason::kReset) {
        ++counters_.canceled;
      } else {
        ++counters_.abandoned;
      }
    };
  }

  sim::NodeId self_;
  std::uint32_t incarnation_;  ///< ours; bumped when our seq space wraps

  fault::ReliableSender<Outgoing> sender_;

  fault::ReliableReceiver receiver_;
  std::uint32_t peer_incarnation_ = 0;
  std::vector<std::uint32_t> ack_queue_;

  Counters counters_;
};

}  // namespace reconfnet::transport
