// Synchronous message bus implementing the paper's communication model
// (Section 1.1) including the DoS blocking rule (Section 1.1, "Adversarial
// DoS-attacks"): a message sent from v to w in round i is received iff
//   - v is non-blocked in round i, and
//   - w is non-blocked in rounds i and i+1.
//
// The bus is the single place where messages cross node boundaries, so it is
// also where communication work is metered and where the fault-injection
// layer (src/fault/, DESIGN.md §10) interposes: an optional DeliveryHook
// decides the fate of every message that survives the blocking rule — drop,
// deliver now, deliver k rounds late, or duplicate — and may permute each
// inbox. With no hook attached the bus behaves exactly as before the hook
// existed (byte-identical deliveries and metering).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "sim/blocked.hpp"
#include "sim/metrics.hpp"
#include "sim/types.hpp"

namespace reconfnet::sim {

/// A message in flight.
template <typename Msg>
struct Envelope {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  Msg payload{};
};

/// Interposes on Bus delivery (the fault-injection hook point). The bus
/// consults the hook only for messages that already passed the blocking rule,
/// so injected faults compose with — never mask — the adversary's drops.
class DeliveryHook {
 public:
  DeliveryHook() = default;
  DeliveryHook(const DeliveryHook&) = delete;
  DeliveryHook& operator=(const DeliveryHook&) = delete;
  DeliveryHook(DeliveryHook&&) = delete;
  DeliveryHook& operator=(DeliveryHook&&) = delete;
  virtual ~DeliveryHook() = default;

  /// Decides the fate of one message crossing the boundary of `round`.
  /// Append one entry per copy to deliver: 0 = deliver at the next round as
  /// usual, k > 0 = deliver k rounds late. Leaving `deliveries` empty drops
  /// the message. The first entry is the message itself; every further entry
  /// is an injected duplicate.
  virtual void on_message(NodeId from, NodeId to, Round round,
                          std::vector<Round>& deliveries) = 0;

  /// Optionally permutes the inbox of `node` for the round now beginning.
  /// Return true and fill `perm` with a permutation of [0, count) to reorder;
  /// return false to keep arrival order.
  virtual bool reorder(NodeId node, Round round, std::size_t count,
                       std::vector<std::size_t>& perm) = 0;

  /// Called once per step() so hooks with round-indexed schedules (partitions,
  /// crashes) can advance a clock that is shared across several buses.
  virtual void on_step(Round round) = 0;
};

/// Synchronous message bus for one message type. A protocol round proceeds:
///   1. read inbox(v) for every node v (messages delivered at this round),
///   2. compute,
///   3. send(from, to, msg, bits) for each outgoing message,
///   4. step(blocked_now, blocked_next) to advance the round boundary.
///
/// step() applies the paper's blocking rule: messages from blocked senders or
/// to receivers blocked in the sending round are dropped immediately; messages
/// to receivers blocked in the delivery round are dropped at delivery. A
/// delayed copy re-checks the receiver side of the rule in its actual
/// delivery round.
template <typename Msg>
class Bus {
 public:
  explicit Bus(WorkMeter* meter = nullptr) : meter_(meter) {}

  /// Attaches (or detaches, with nullptr) the fault-injection hook. The hook
  /// must outlive the bus.
  void set_fault_hook(DeliveryHook* hook) { hook_ = hook; }
  [[nodiscard]] DeliveryHook* fault_hook() const { return hook_; }

  /// Queues a message from `from` to `to` in the current round. `bits` is the
  /// wire size charged to both endpoints' communication work.
  void send(NodeId from, NodeId to, Msg payload, std::uint64_t bits) {
    if (meter_ != nullptr) meter_->note_sent(from, bits);
    outbox_.push_back(
        {Envelope<Msg>{from, to, std::move(payload)}, bits});
  }

  /// Pre-sizes the outbox for `messages` sends in one round, so a driver
  /// that knows its peak traffic pays one exact allocation instead of
  /// geometric growth. Changes no delivery or metering.
  void reserve(std::size_t messages) { outbox_.reserve(messages); }

  /// Advances the round boundary. `blocked_sending` is the adversary's
  /// blocked set for the round that just ended; `blocked_delivery` is the
  /// blocked set for the round about to begin.
  void step(const BlockedSet& blocked_sending,
            const BlockedSet& blocked_delivery) {
    // Deterministic inbox turnover: only the inboxes that received a
    // delivery last round hold messages, and `touched_` lists exactly those,
    // sorted. clear() keeps each vector's capacity, so steady-state rounds
    // recycle every buffer (pinned by tests/allocbudget_test.cpp).
    for (const NodeId node : touched_) {
      inboxes_[static_cast<std::size_t>(node)].clear();
    }
    touched_.clear();
    release_delayed(blocked_delivery);
    // With both sets empty the blocking rule passes every message, so the
    // three membership lookups per message are skipped.
    const bool none_blocked =
        blocked_sending.empty() && blocked_delivery.empty();
    for (auto& [envelope, bits] : outbox_) {
      const bool delivered = none_blocked ||
                             (!blocked_sending.contains(envelope.from) &&
                              !blocked_sending.contains(envelope.to) &&
                              !blocked_delivery.contains(envelope.to));
      if (!delivered) {
        if (meter_ != nullptr) meter_->note_dropped();
        continue;
      }
      if (audit::enabled()) {
        audit::enforce(audit::check_blocking_rule(
            envelope.from, envelope.to, blocked_sending, blocked_delivery));
      }
      if (hook_ == nullptr) {
        deliver(std::move(envelope), bits);
        continue;
      }
      fate_.clear();
      hook_->on_message(envelope.from, envelope.to, round_, fate_);
      if (fate_.empty()) {
        if (meter_ != nullptr) meter_->note_injected_drop();
        continue;
      }
      for (std::size_t copy = 0; copy + 1 < fate_.size(); ++copy) {
        if (meter_ != nullptr) meter_->note_duplicated();
        route(Envelope<Msg>{envelope}, bits, fate_[copy]);
      }
      route(std::move(envelope), bits, fate_.back());
    }
    std::sort(touched_.begin(), touched_.end());
    apply_reorder();
    outbox_.clear();
    if (hook_ != nullptr) hook_->on_step(round_);
    if (meter_ != nullptr) meter_->finish_round(round_);
    ++round_;
  }

  /// Convenience for protocols that run without a DoS adversary.
  void step() {
    static const BlockedSet kNone;
    step(kNone, kNone);
  }

  /// Messages delivered to `node` at the start of the current round.
  [[nodiscard]] std::span<const Envelope<Msg>> inbox(NodeId node) const {
    const auto index = static_cast<std::size_t>(node);
    if (index >= inboxes_.size()) return {};
    return {inboxes_[index].data(), inboxes_[index].size()};
  }

  /// Index of the current round (number of step() calls so far).
  [[nodiscard]] Round round() const { return round_; }

  /// Number of messages queued in the current round so far.
  [[nodiscard]] std::size_t pending() const { return outbox_.size(); }

  /// Number of hook-delayed copies still waiting for their delivery round.
  [[nodiscard]] std::size_t delayed_pending() const { return delayed_.size(); }

 private:
  struct Delayed {
    Envelope<Msg> envelope;
    std::uint64_t bits = 0;
    Round due = 0;  ///< value of round_ at whose step() this copy lands
  };

  /// Appends a delivery to its inbox and the touched list, with metering.
  /// Growing the inbox table is a one-time cost per new high NodeId (ids are
  /// dense and monotonic, sim/types.hpp); steady state never resizes.
  void deliver(Envelope<Msg> envelope, std::uint64_t bits) {
    if (meter_ != nullptr) meter_->note_received(envelope.to, bits);
    const auto index = static_cast<std::size_t>(envelope.to);
    if (index >= inboxes_.size()) inboxes_.resize(index + 1);
    auto& inbox = inboxes_[index];
    if (inbox.empty()) touched_.push_back(envelope.to);
    inbox.push_back(std::move(envelope));
  }

  /// Sends one hook-approved copy on its way: immediately, or into the delay
  /// queue when the hook deferred it.
  void route(Envelope<Msg> envelope, std::uint64_t bits, Round delay) {
    if (delay <= 0) {
      deliver(std::move(envelope), bits);
      return;
    }
    if (meter_ != nullptr) meter_->note_deferred();
    delayed_.push_back({std::move(envelope), bits, round_ + delay});
  }

  /// Delivers every delayed copy due at this boundary. The sender's side of
  /// the blocking rule was checked in the sending round; the receiver must be
  /// non-blocked in the (late) delivery round.
  void release_delayed(const BlockedSet& blocked_delivery) {
    if (delayed_.empty()) return;
    std::size_t kept = 0;
    for (auto& entry : delayed_) {
      if (entry.due != round_) {
        delayed_[kept++] = std::move(entry);
        continue;
      }
      if (meter_ != nullptr) meter_->note_released();
      if (blocked_delivery.contains(entry.envelope.to)) {
        if (meter_ != nullptr) meter_->note_dropped();
        continue;
      }
      if (audit::enabled()) {
        static const BlockedSet kNoBlocked;
        audit::enforce(audit::check_blocking_rule(
            entry.envelope.from, entry.envelope.to, kNoBlocked,
            blocked_delivery));
      }
      deliver(std::move(entry.envelope), entry.bits);
    }
    delayed_.resize(kept);
  }

  /// Lets the hook permute each touched inbox (fault-injected reordering).
  void apply_reorder() {
    if (hook_ == nullptr) return;
    for (const NodeId node : touched_) {
      auto& inbox = inboxes_[static_cast<std::size_t>(node)];
      perm_.clear();
      if (!hook_->reorder(node, round_, inbox.size(), perm_)) continue;
      if (perm_.size() != inbox.size()) continue;
      scratch_.clear();
      scratch_.reserve(inbox.size());
      for (const std::size_t index : perm_) {
        scratch_.push_back(std::move(inbox[index]));
      }
      inbox.swap(scratch_);
    }
  }

  std::vector<std::pair<Envelope<Msg>, std::uint64_t>> outbox_;
  /// Index-addressed by NodeId (dense, monotonic — sim/types.hpp), grown on
  /// demand in deliver(); cleared-not-shrunk so buffers recycle each round.
  std::vector<std::vector<Envelope<Msg>>> inboxes_;
  /// Nodes whose inbox received a delivery in the round that just ended,
  /// sorted by id; the next step() clears exactly these.
  std::vector<NodeId> touched_;
  std::vector<Delayed> delayed_;
  /// Scratch buffers reused across rounds.
  std::vector<Round> fate_;
  std::vector<std::size_t> perm_;
  std::vector<Envelope<Msg>> scratch_;
  WorkMeter* meter_;
  DeliveryHook* hook_ = nullptr;
  Round round_ = 0;
};

}  // namespace reconfnet::sim
