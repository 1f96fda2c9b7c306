// Per-node state machine of the Section 5 protocol (DESIGN.md §15): the one
// implementation of the replicated-supernode epoch — candidate/sync rounds,
// lowest-id adoption, state-broadcast resyncs and the four reorganization
// rounds of Lemma 15 — expressed as one node's view: receive frames,
// compute, emit frames. Two drivers run it over a sim::Bus<Message>:
//
//   * dos::run_node_level_epoch (transport/node_level.cpp) runs n instances
//     for one epoch under the DoS adversary's blocked sets, calling each node
//     only in rounds where it is available, and stops after round D;
//   * InprocDeployment (inproc.hpp) runs them lockstep for whole epochs under
//     a FaultPlan, and LiveNodeRuntime (live_runtime.hpp) runs one instance
//     per process over live UDP.
//
// In process every frame's bulky Body (sampler state, candidate outbox,
// group lists, table fragments) is built once per sender per round and
// shared by handle: adopting a winner's state or resyncing from a broadcast
// copies a pointer, never sampler blocks.
//
// Past round D the protocol adds what a distributed run needs and a
// centralized one does not:
//   * a d-round hypercube all-gather of the new group table (live nodes must
//     learn it to start the next epoch),
//   * a commit/fallback round: a node whose gathered table is incomplete or
//     conflicted — or whose old group voted incomplete — falls back to the
//     previous configuration and retries the epoch with fresh streams,
//     bounded by max_attempts (graceful degradation, never wedge),
//   * epoch/attempt tags on every frame so stragglers from an aborted
//     attempt cannot corrupt the retry, and
//   * an optional DHT smoke phase after the last epoch: every node routes a
//     greedy bit-fixing lookup (apps/dht key hashing) over the final tables.
//
// Epoch round layout, with P = 2 * schedule.iterations + 1 primitive rounds:
//   [0, 2P)               sampler simulation/synchronization
//   2P .. 2P+3            reorganization rounds A-D
//   [2P+4, 2P+4+d)        table all-gather along hypercube dimensions
//   2P+4+d                merge + completeness vote to the old group
//   2P+5+d                commit or fallback; next epoch starts next round
// Every attempt of one epoch occupies exactly 2P + d + 6 rounds.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "dos/group_table.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sampling/schedule.hpp"
#include "sim/bus.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"
#include "transport/wire.hpp"

namespace reconfnet::transport {

// Every in-process delivery is one envelope, and the busiest node-level round
// delivers about a million of them: a frame must stay no larger than the
// standalone node-level simulation's was (152 B on x86-64).
static_assert(sizeof(sim::Envelope<Message>) <= 152,
              "in-process frames must stay lean");

class NodeProtocol {
 public:
  struct Config {
    std::uint64_t seed = 1;
    int epochs = 1;
    int max_attempts = 3;  ///< epoch retries before giving up on it
    sampling::SamplingConfig sampling{};
    bool dht_smoke = false;  ///< run the lookup phase after the last epoch
    /// Master stream of epoch 0, attempt 0; unset means Rng(seed). Retries
    /// and later epochs always remix from `seed`.
    std::optional<support::Rng> first_master;
  };

  struct Metrics {
    std::int64_t epochs_completed = 0;
    std::int64_t epochs_failed = 0;  ///< epochs abandoned after max_attempts
    std::int64_t attempts = 0;       ///< epoch attempts started
    std::int64_t fallbacks = 0;      ///< attempts ended in fallback
    std::int64_t resyncs = 0;        ///< state adopted from a broadcast
    std::int64_t sample_shortages = 0;
    std::int64_t doomed_attempts = 0;  ///< aborted on group silence
    std::int64_t knowledge_epochs = 0;  ///< epochs with full Lemma 15 view
    std::int64_t rounds_total = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bits_sent = 0;      ///< protocol frames only
    std::uint64_t bits_received = 0;  ///< protocol frames only
    std::uint64_t stale_frames = 0;   ///< mismatched epoch/attempt tags
    bool lookup_ok = false;  ///< DHT smoke reply reached us
    bool finished = false;
  };

  /// What the node learned in reorganization rounds C and D of the current
  /// attempt (the Lemma 15 view): its new group R'(own_supernode) and, by
  /// supernode, the new groups forwarded to it. Bodies list members in
  /// `group`; `own` stays null until learned.
  struct GroupView {
    BodyPtr own;
    std::uint64_t own_supernode = 0;
    std::map<std::uint64_t, BodyPtr> neighbors;
  };

  using Outbox = std::vector<std::pair<sim::NodeId, Message>>;

  /// `initial` is shared, read-only, by every node of a driver.
  NodeProtocol(sim::NodeId self,
               std::shared_ptr<const dos::GroupTable> initial, Config config);

  /// Runs one protocol round: consumes the frames delivered for `round`
  /// (sent in round - 1), appends outgoing (destination, frame) pairs and
  /// advances the internal phase machine. `dead` lists peers known dead
  /// (sorted; from the pacer's evictions or the fault plan), feeding the
  /// group-silence abort. Returns false once all epochs and the smoke phase
  /// are done (the caller may keep pacing/linger).
  bool on_round(sim::Round round,
                std::span<const sim::Envelope<Message>> inbox, Outbox& out,
                std::span<const sim::NodeId> dead);

  [[nodiscard]] bool finished() const { return metrics_.finished; }
  [[nodiscard]] const dos::GroupTable& table() const { return *table_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }
  [[nodiscard]] sim::NodeId self() const { return self_; }
  /// Rounds one attempt of the current epoch occupies.
  [[nodiscard]] int epoch_rounds() const { return epoch_rounds_; }
  /// Primitive sampler rounds P of the current attempt; reorganization
  /// round D is round 2P + 3 of the attempt.
  [[nodiscard]] int primitive_rounds() const { return primitive_rounds_; }
  /// The supernode state this node currently holds.
  [[nodiscard]] const SamplerState& replica() const {
    return replica_->state;
  }
  [[nodiscard]] const GroupView& group_view() const { return view_; }

  /// Heartbeat/liveness peer set under the current table: every node, self
  /// excluded, ascending — the bus is globally synchronous, so live pacing
  /// must wait on the whole membership, not just the routing neighborhood.
  [[nodiscard]] std::vector<sim::NodeId> peers() const;

 private:
  enum class Mode { kEpochs, kSmoke, kDone };

  // --- phase handlers (r = round - epoch_start_) ----------------------------
  // All of them read the round's frames through accepted().
  void sampler_sim_round(int seq, Outbox& out);
  void sampler_sync_round(Outbox& out);
  void reorg_round_a(Outbox& out);
  void reorg_round_b(Outbox& out);
  void reorg_round_c(Outbox& out);
  void reorg_round_d();
  void allgather_round(int dim, Outbox& out);
  void vote_round(Outbox& out);
  void commit_round(sim::Round round);
  void smoke_round(sim::Round round, Outbox& out);

  /// Starts (or retries) the current epoch at `start_round`: re-derives the
  /// schedule and the per-node rng streams from the current table.
  void begin_attempt(sim::Round start_round);
  /// Epoch boundary bookkeeping: commit or fallback, retry budget, and the
  /// transition into the smoke/done modes. `next_start` is the first round
  /// of the next attempt (or of the smoke phase).
  void advance_epoch(bool committed, sim::Round next_start);
  /// Sets doomed_ when some current group has every member in `dead`.
  void check_doomed(std::span<const sim::NodeId> dead);
  /// Merges one incoming table fragment, tracking conflicts.
  void merge_table(std::span<const TableEntry> fragment);
  /// True iff the gathered table is a complete, conflict-free partition of
  /// the current node set into 2^d non-empty groups.
  [[nodiscard]] bool table_complete() const;

  /// One primitive round on the replica `prev`: the candidate body, holding
  /// the advanced state and the supernode's outgoing messages.
  [[nodiscard]] BodyPtr advance(const SamplerState& prev,
                                std::span<const SuperMsg> incoming);

  /// Calls `handle(envelope)` for each frame of the round whose tag matches
  /// the current (epoch, attempt).
  template <typename Handle>
  void accepted(Handle&& handle) const {
    for (const auto& envelope : inbox_) {
      if (current_tag(envelope.payload)) handle(envelope);
    }
  }
  /// Tags and meters `msg` once, then queues a copy for each of `to`.
  void emit(Outbox& out, std::span<const sim::NodeId> to, Message msg);
  /// True iff the frame belongs to the current (epoch, attempt).
  [[nodiscard]] bool current_tag(const Message& msg) const;

  sim::NodeId self_;
  Config config_;
  std::shared_ptr<const dos::GroupTable> table_;
  Mode mode_ = Mode::kEpochs;
  Metrics metrics_;

  // Epoch/attempt position.
  std::int64_t epoch_ = 0;
  std::int32_t attempt_ = 0;
  sim::Round epoch_start_ = 0;
  sim::Round current_round_ = 0;
  std::span<const sim::Envelope<Message>> inbox_;  ///< this round's frames

  // Per-attempt derived state.
  std::uint64_t supernode_ = 0;
  sampling::Schedule schedule_;
  int primitive_rounds_ = 0;
  int epoch_rounds_ = 0;
  support::Rng rng_{0};
  BodyPtr replica_;  ///< replica_->state is the supernode state
  bool doomed_ = false;

  // Reorganization state.
  BodyPtr fresh_group_;  ///< R'(supernode_) collected in round B
  GroupView view_;
  std::map<std::uint64_t, std::vector<sim::NodeId>> gathered_;
  bool gather_conflict_ = false;
  bool vote_complete_ = false;
  bool veto_seen_ = false;

  // DHT smoke state.
  sim::Round smoke_start_ = 0;
  std::set<sim::NodeId> lookups_seen_;

  // Scratch buffers (recycled across rounds).
  std::map<std::pair<std::uint64_t, std::uint32_t>, SuperMsg> super_dedup_;
  std::vector<SuperMsg> super_scratch_;
};

}  // namespace reconfnet::transport
