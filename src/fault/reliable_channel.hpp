// Reliable delivery on top of the lossy bus (DESIGN.md §10): an ack/timeout/
// retry wrapper with capped binary exponential backoff (in rounds) and
// receiver-side deduplication by sequence number. The paper's model never
// loses messages, so the bare protocols have no retransmission story; the
// overlays opt into this wrapper at their Bus edges when running under a
// FaultPlan.
//
// Wire format (accounted against both endpoints' communication work):
//   data: 1 kind bit + kReliableSeqBits sequence number + the payload bits
//   ack:  1 kind bit + kReliableSeqBits sequence number
// Sequence numbers are unique per channel instance, so dedup needs no
// per-sender state. Every data receipt is (re-)acked — the previous ack may
// itself have been lost — and duplicates are suppressed before the caller
// sees them (at-most-once; audited by audit::check_at_most_once).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "fault/reliable_core.hpp"
#include "sim/bus.hpp"
#include "sim/types.hpp"

namespace reconfnet::fault {

// Retry/ack constants, pinned by tools/protocheck/protocol.toml.
inline constexpr std::uint64_t kReliableSeqBits = 32;
inline constexpr std::uint64_t kReliableHeaderBits = 1 + kReliableSeqBits;
inline constexpr std::uint64_t kReliableAckBits = 1 + kReliableSeqBits;
inline constexpr sim::Round kReliableInitialTimeoutRounds = 2;
inline constexpr sim::Round kReliableBackoffCapRounds = 16;

/// Ack/retry wrapper around one Bus. The caller drives the same synchronous
/// skeleton as a bare bus — receive(v) for every node, compute, send(...),
/// step() — and the channel retransmits unacked messages underneath. One
/// ReliableSender holds the channel-wide sequence space and one
/// ReliableReceiver its dedup state (fault/reliable_core.hpp); time is the
/// bus round.
template <typename Payload>
class ReliableChannel {
 public:
  /// On-the-wire message: a data copy or an ack for one sequence number.
  struct ReliableMsg {
    bool is_ack = false;
    std::uint64_t seq = 0;
    Payload payload{};
  };

  struct Config {
    sim::Round initial_timeout = kReliableInitialTimeoutRounds;
    sim::Round backoff_cap = kReliableBackoffCapRounds;
    int max_retries = 0;  ///< retransmissions before abandoning; 0 = no limit
    /// Wire width of the sequence number; sequence numbers wrap at 2^bits.
    /// The default matches the pinned wire format; tests shrink it to force
    /// the wraparound path without 2^32 sends.
    std::uint64_t seq_bits = kReliableSeqBits;
  };

  struct Counters {
    std::uint64_t data_sent = 0;
    std::uint64_t retransmissions = 0;
    std::uint64_t acks_sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t duplicates_suppressed = 0;
    std::uint64_t abandoned = 0;   ///< pendings dropped before an ack came
    std::uint64_t resets = 0;      ///< explicit reset() calls
    std::uint64_t seq_wraps = 0;   ///< sequence space exhaustions survived
  };

  /// Why a queued send was given up on. Every abandonment is surfaced as a
  /// typed record (take_abandoned()), never just a counter bump.
  using AbandonReason = fault::AbandonReason;

  /// One send the channel stopped retrying, with enough context for the
  /// caller to re-issue or escalate.
  struct AbandonedSend {
    sim::NodeId from = sim::kNoNode;
    sim::NodeId to = sim::kNoNode;
    std::uint64_t seq = 0;
    int retries = 0;
    AbandonReason reason = AbandonReason::kRetryBudget;
  };

 private:
  /// What a retransmission needs: the endpoints, the payload and the full
  /// wire size (header included).
  struct Outgoing {
    sim::NodeId from = sim::kNoNode;
    sim::NodeId to = sim::kNoNode;
    Payload payload{};
    std::uint64_t bits = 0;
  };
  using Pending = typename ReliableSender<Outgoing>::Pending;

  // State precedes the methods: the protocol-conformance checker
  // (tools/protocheck) attributes send/inbox/step sites to the nearest
  // preceding Bus binding.
  sim::Bus<ReliableMsg> bus_;
  ReliableSender<Outgoing> sender_;
  ReliableReceiver receiver_;
  std::vector<audit::DeliveryRecord> delivery_log_;
  Counters counters_;
  std::vector<AbandonedSend> abandoned_log_;

  /// Puts one data copy on the bus.
  void transmit(std::uint64_t seq, const Pending& entry) {
    const Outgoing& out = entry.item;
    bus_.send(out.from, out.to, ReliableMsg{false, seq, out.payload},
              out.bits);
  }

  /// The sender core's abandon callback: one typed record per dropped send.
  [[nodiscard]] auto abandon_fn() {
    return [this](std::uint64_t seq, const Pending& entry,
                  AbandonReason reason) {
      abandoned_log_.push_back({entry.item.from, entry.item.to, seq,
                                entry.transmissions - 1, reason});
      ++counters_.abandoned;
    };
  }

 public:
  explicit ReliableChannel(sim::WorkMeter* meter = nullptr,
                           sim::DeliveryHook* fault_hook = nullptr,
                           Config config = {})
      : bus_(meter),
        sender_({config.initial_timeout, config.backoff_cap,
                 config.max_retries > 0 ? config.max_retries + 1 : 0,
                 config.seq_bits}) {
    bus_.set_fault_hook(fault_hook);
  }

  /// Queues one payload for reliable delivery and puts its first copy on
  /// the bus. `payload_bits` is the bare payload's wire size; the channel
  /// adds its header on top.
  void send(sim::NodeId from, sim::NodeId to, Payload payload,
            std::uint64_t payload_bits) {
    if (sender_.wrap_if_exhausted(abandon_fn())) {
      // A fresh era reuses sequence numbers, so the dedup state and the
      // at-most-once log start over with it.
      ++counters_.seq_wraps;
      receiver_.restart();
      delivery_log_.clear();
    }
    sender_.send({from, to, std::move(payload),
                  payload_bits + kReliableHeaderBits},
                 bus_.round(), [this](std::uint64_t seq, const Pending& entry) {
                   transmit(seq, entry);
                 });
    ++counters_.data_sent;
  }

  /// Drains `node`'s inbox: consumes acks, acks every data receipt, dedups,
  /// and returns the newly accepted payloads in arrival order.
  std::vector<sim::Envelope<Payload>> receive(sim::NodeId node) {
    std::vector<sim::Envelope<Payload>> fresh;
    for (const auto& envelope : bus_.inbox(node)) {
      const ReliableMsg& wire = envelope.payload;
      if (wire.is_ack) {
        sender_.ack(wire.seq);
        continue;
      }
      // Always ack, even duplicates: the previous ack may have been lost.
      ReliableMsg ack;
      ack.is_ack = true;
      ack.seq = wire.seq;
      bus_.send(node, envelope.from, ack, kReliableAckBits);
      ++counters_.acks_sent;
      if (!receiver_.accept(wire.seq)) {
        ++counters_.duplicates_suppressed;
        continue;
      }
      ++counters_.delivered;
      delivery_log_.push_back({node, envelope.from, wire.seq});
      fresh.push_back({envelope.from, node, wire.payload});
    }
    return fresh;
  }

  /// Advances the round boundary: retransmits every in-flight message whose
  /// timeout expired (doubling it, capped at backoff_cap), drops the ones
  /// out of retries, then steps the underlying bus.
  void step(const sim::BlockedSet& blocked_sending,
            const sim::BlockedSet& blocked_delivery) {
    sender_.for_due(
        bus_.round(),
        [this](std::uint64_t seq, const Pending& entry) {
          ++counters_.retransmissions;
          transmit(seq, entry);
        },
        abandon_fn());
    if (audit::enabled()) {
      audit::enforce(audit::check_at_most_once(delivery_log_));
    }
    bus_.step(blocked_sending, blocked_delivery);
  }

  /// Convenience for protocols that run without a DoS adversary.
  void step() {
    static const sim::BlockedSet kNone;
    step(kNone, kNone);
  }

  /// Flushes every in-flight send — each surfaced as a typed kReset
  /// abandonment — without disturbing the sequence counter: numbering stays
  /// monotone across the reset, so an ack still crossing the bus for a
  /// pre-reset send can never cancel a post-reset one (stale-ack immunity;
  /// regression-tested in tests/fault_test.cpp).
  void reset() {
    ++counters_.resets;
    sender_.drop_if([](const Pending&) { return true; },
                    AbandonReason::kReset, abandon_fn());
  }

  /// Typed abandonment records accumulated since the last call, oldest
  /// first. Draining them is how callers learn WHICH sends were given up,
  /// not just how many.
  [[nodiscard]] std::vector<AbandonedSend> take_abandoned() {
    return std::exchange(abandoned_log_, {});
  }

  /// In-flight messages still awaiting an ack.
  [[nodiscard]] std::size_t pending_count() const { return sender_.size(); }
  /// Messages queued on the underlying bus for the current round.
  [[nodiscard]] std::size_t queued() const { return bus_.pending(); }
  [[nodiscard]] sim::Round round() const { return bus_.round(); }
  [[nodiscard]] const Counters& counters() const { return counters_; }
  /// Accepted deliveries in order, for audit::check_at_most_once.
  [[nodiscard]] const std::vector<audit::DeliveryRecord>& delivery_log()
      const {
    return delivery_log_;
  }
};

}  // namespace reconfnet::fault
