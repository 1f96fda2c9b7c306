// The one ack/backoff/dedup state machine behind both retransmitting
// transports: the simulator's fault::ReliableChannel (DESIGN.md §10) and the
// live transport::ReliableLink (§15). Clock-free and wire-free: time is an
// opaque Tick (bus rounds, or microseconds on UDP) and the adapters own the
// headers, the transmissions and the counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <set>
#include <utility>

namespace reconfnet::fault {

using Tick = std::int64_t;

/// Why a queued send was given up on.
enum class AbandonReason {
  kRetryBudget,  ///< transmission budget spent without an ack
  kReset,        ///< the caller dropped it (reset or stale cancel)
  kSeqWrap,      ///< sequence space wrapped; a stale era cannot be acked
};

struct ReliableCoreConfig {
  Tick initial_timeout = 0;   ///< wait after the first transmission
  Tick backoff_cap = 0;       ///< the doubling wait never exceeds this
  int max_transmissions = 0;  ///< 0 = retransmit until acked
  std::uint64_t seq_bits = 32;  ///< seqs run 0 .. 2^seq_bits - 1
};

/// Sender half: one sequence space's in-flight sends, each retransmitted on
/// a capped binary-backoff timer until acked. `Item` is whatever the adapter
/// needs to put a copy on the wire again.
template <typename Item>
class ReliableSender {
 public:
  struct Pending {
    Item item{};
    Tick due = 0;      ///< tick of the next transmission
    Tick timeout = 0;  ///< current backoff interval
    int transmissions = 0;  ///< copies sent so far
  };

  explicit ReliableSender(ReliableCoreConfig config) : config_(config) {}

  /// Call before every stage(). When the sequence space is exhausted, opens
  /// a fresh era: every in-flight send goes to on_abandon(seq, pending,
  /// kSeqWrap) — its ack could cancel a reused number — and numbering
  /// restarts at 0. Returns true iff it did, so the adapter can restart the
  /// receiving side's dedup.
  template <typename OnAbandon>
  bool wrap_if_exhausted(OnAbandon&& on_abandon) {
    if (config_.seq_bits >= 64 || next_seq_ >> config_.seq_bits == 0) {
      return false;
    }
    drop_if([](const Pending&) { return true; }, AbandonReason::kSeqWrap,
            on_abandon);
    next_seq_ = 0;
    return true;
  }

  /// The sequence number the next stage() assigns.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Stages `item` under next_seq(), due for its first transmission at
  /// `now`, and returns that number.
  std::uint64_t stage(Item item, Tick now) {
    pending_.emplace_hint(pending_.end(), next_seq_,
                          Pending{std::move(item), now, 0, 0});
    return next_seq_++;
  }

  /// Stages `item` and sends its first copy at once via transmit(seq,
  /// pending).
  template <typename Transmit>
  void send(Item item, Tick now, Transmit&& transmit) {
    stage(std::move(item), now);
    fire(*std::prev(pending_.end()), now, transmit);
  }

  /// Transmits every send due at `now` in ascending sequence order;
  /// pending.transmissions counts the copies already sent (0 = first). A due
  /// send whose budget is spent goes to on_abandon(seq, pending,
  /// kRetryBudget) instead.
  template <typename Transmit, typename OnAbandon>
  void for_due(Tick now, Transmit&& transmit, OnAbandon&& on_abandon) {
    for (auto it = pending_.begin(); it != pending_.end();) {
      Pending& entry = it->second;
      if (entry.due > now) {
        ++it;
      } else if (config_.max_transmissions > 0 &&
                 entry.transmissions >= config_.max_transmissions) {
        on_abandon(it->first, std::as_const(entry),
                   AbandonReason::kRetryBudget);
        it = pending_.erase(it);
      } else {
        fire(*it++, now, transmit);
      }
    }
  }

  /// The peer acked `seq`; false when no such send is in flight.
  bool ack(std::uint64_t seq) { return pending_.erase(seq) > 0; }

  /// Gives up every in-flight send for which pred(pending) holds, handing
  /// each to on_abandon(seq, pending, reason). Returns how many.
  template <typename Pred, typename OnAbandon>
  std::size_t drop_if(Pred&& pred, AbandonReason reason,
                      OnAbandon&& on_abandon) {
    const std::size_t before = pending_.size();
    for (auto it = pending_.begin(); it != pending_.end();) {
      if (pred(std::as_const(it->second))) {
        on_abandon(it->first, std::as_const(it->second), reason);
        it = pending_.erase(it);
      } else {
        ++it;
      }
    }
    return before - pending_.size();
  }

  [[nodiscard]] std::size_t size() const { return pending_.size(); }

 private:
  /// Sends one copy and re-arms the timer: the first wait is
  /// initial_timeout, every later one doubles up to backoff_cap.
  template <typename Transmit>
  void fire(std::pair<const std::uint64_t, Pending>& slot, Tick now,
            Transmit& transmit) {
    Pending& entry = slot.second;
    transmit(slot.first, std::as_const(entry));
    entry.timeout = entry.transmissions++ == 0
                        ? config_.initial_timeout
                        : std::min(entry.timeout * 2, config_.backoff_cap);
    entry.due = now + entry.timeout;
  }

  ReliableCoreConfig config_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Pending> pending_;  ///< ordered: seq order resends
};

/// Receiver half: at-most-once acceptance over one sequence space, kept as
/// a delivered floor plus the accepted numbers above it.
class ReliableReceiver {
 public:
  /// True iff `seq` arrives for the first time since the last restart.
  bool accept(std::uint64_t seq) {
    if (seq < floor_) return false;
    if (seq != floor_) return above_floor_.insert(seq).second;
    ++floor_;
    while (!above_floor_.empty() && *above_floor_.begin() == floor_) {
      above_floor_.erase(above_floor_.begin());
      ++floor_;
    }
    return true;
  }

  /// Forgets every receipt: the peer restarted or opened a new era.
  void restart() {
    floor_ = 0;
    above_floor_.clear();
  }

 private:
  std::uint64_t floor_ = 0;  ///< every seq below it was accepted
  std::set<std::uint64_t> above_floor_;
};

}  // namespace reconfnet::fault
