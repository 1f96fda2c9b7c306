// The group-level Section 5 epoch, shared by the DoS-resistant overlay
// (Section 5), the combined overlay (Section 6) and the DHT's k-ary overlay
// (Section 7.2). All three reconfigure a grouped hypercube the same way:
// every group R(x) replicates supernode x's run of the rapid node sampling
// primitive (Algorithm 2), and every overlay round is a blocking round in
// which a t-late adversary blocks nodes from a stale snapshot while the
// overlay tallies which groups kept an available representative and whether
// the non-blocked nodes stayed connected. What differs between the overlays
// is data: the groups, the sampled cube, the work charge, the rng salt and
// the hooks below.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "adversary/dos.hpp"
#include "dos/group_table.hpp"
#include "sampling/hypercube_sampler.hpp"
#include "sampling/schedule.hpp"
#include "sim/blocked.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::dos {

/// Wire size of one node id; supernode-level messages carry ids and are
/// replicated to whole groups.
inline constexpr std::uint64_t kIdBits = 64;

/// One attack scenario: strategy, enforced lateness (rounds), and the
/// blocked fraction r of an r-bounded adversary.
struct Attack {
  adversary::DosAdversary* adversary = nullptr;  ///< nullptr: no attack
  int lateness = 0;
  double blocked_fraction = 0.0;
};

/// What an epoch's blocking rounds add up to; every overlay's EpochReport
/// derives from it.
struct RoundTally {
  sim::Round rounds = 0;
  /// (group, round) pairs in which no representative was available — each
  /// one is a violation of the Lemma 17 condition.
  std::size_t silenced_group_rounds = 0;
  /// Rounds in which the non-blocked nodes were disconnected (the paper's
  /// failure event).
  std::size_t disconnected_rounds = 0;
  /// min over (group, round) of (available nodes) / |group|.
  double min_available_fraction = 1.0;
  std::uint64_t max_node_bits_per_round = 0;
};

using Edge = std::pair<sim::NodeId, sim::NodeId>;

/// An overlay's current groups as a blocking round reads them. Every group
/// is non-empty and every supernode graph is connected, so with nothing
/// blocked the overlay is connected and the round skips the check.
struct RoundInput {
  Attack attack;
  /// Every member in the overlay's order: the adversary's public id space
  /// (the secret is the group structure) and the connectivity node set.
  std::vector<sim::NodeId> nodes;
  std::vector<std::span<const sim::NodeId>> groups;
  /// The overlay edges, or `build_edges` to build them only in rounds that
  /// block someone (the DHT's edge list is quadratic in the group size).
  std::span<const Edge> edges;
  std::function<std::vector<Edge>()> build_edges;
  /// Ids the adversary may block, for the budget audit; nullptr: `nodes`.
  /// Under churn a stale snapshot legitimately names departed ids.
  const std::unordered_set<sim::NodeId>* known_ids = nullptr;
  /// Crashed members: silent in every round, on top of the budget.
  const std::unordered_set<sim::NodeId>* crashed = nullptr;
  /// Called at the end of every round, before the round counter advances.
  std::function<void(sim::Round)> on_round_end;
};

/// The groups of `table` under `attack`, edges left to the caller.
[[nodiscard]] RoundInput group_round_input(const GroupTable& table,
                                           const Attack& attack);

/// One round's communication work (DESIGN.md §4): every available member
/// broadcasts the supernode state S(x) of `state_bits` to all |R(x)|
/// members, receives the broadcasts of the other available members, and
/// relays `extra_bits` of the supernode's outgoing messages.
struct RoundCharge {
  std::uint64_t state_bits = 0;
  std::uint64_t extra_bits = 0;
};

/// The round state an overlay keeps across epochs: the topology snapshots a
/// t-late adversary is served from, the previous round's blocked set, and
/// the round counter.
class GroupRounds {
 public:
  /// Records the current topology as the snapshot of round `round()`.
  void push_snapshot(std::vector<sim::NodeId> nodes, std::vector<Edge> edges);

  /// One blocking round. The adversary chooses from the freshest snapshot
  /// at least `attack.lateness` rounds old (budget-audited under
  /// RECONFNET_AUDIT); a node is available if it is non-blocked in this
  /// round and the previous one; silenced groups, the minimum available
  /// fraction, the work charge and the non-blocked overlay's connectivity
  /// go into `tally`.
  void advance(const RoundInput& input, RoundCharge charge,
               RoundTally& tally);

  [[nodiscard]] const sim::SnapshotBuffer& snapshots() const {
    return snapshots_;
  }
  [[nodiscard]] sim::Round round() const { return round_; }

 private:
  sim::SnapshotBuffer snapshots_;
  sim::BlockedSet blocked_prev_;
  sim::Round round_ = 0;
};

/// Per-overlay inputs of one supernode-sampling run.
struct SamplingSpec {
  std::size_t n = 0;          ///< node count the schedule is sized for
  std::size_t max_group = 0;  ///< most placements one supernode must make
  int dimension = 1;          ///< dimension of the sampled binary cube
  sampling::SamplingConfig sampling{};
  /// Mean group size, for S(x)'s size (each sampled entry carries its
  /// supernode's representatives); 0 charges no work at all.
  double avg_group = 0.0;
  /// Section 5's synchronization-round relay: each of the iteration's m_i
  /// requests is relayed to a group of `relay_group` nodes (0: none).
  double relay_group = 0.0;
  /// Rounds after the last iteration (refinement and reorganization), each
  /// charged `trailing_extra_bits` on top of the state broadcast.
  int trailing_rounds = 4;
  std::uint64_t trailing_extra_bits = 0;
  /// Names the sampled unit in the dry verdict ("supernode", "class").
  const char* unit = "supernode";
  /// Offered every request leg before it is served and every response leg
  /// after; true = lost (a lost request draws nothing).
  std::function<bool(std::uint64_t from, std::uint64_t to)> lost;
};

struct SamplingResult {
  /// One core per sampled supernode; `cores[x].samples()` are x's samples.
  std::vector<sampling::HypercubeSamplerCore> cores;
  /// The final size of S(x), for the caller's rounds after the run.
  std::uint64_t state_bits = 0;
  /// Empty, "a group was silenced" or "<unit> sampling ran dry".
  std::string failure;
};

/// Runs Algorithm 2 for every supernode of the `spec.dimension`-cube as its
/// group replicates it: cores and streams split from `epoch_rng`, each
/// iteration a simulation and a synchronization round for the requests and
/// the same for the responses, then the trailing rounds — every round a
/// blocking round of `rounds`. Lemmas 14/15 need an available node per
/// group per round, so a silenced group fails the run before a dry sampler
/// does.
SamplingResult run_group_sampling(GroupRounds& rounds,
                                  const RoundInput& input,
                                  const SamplingSpec& spec,
                                  support::Rng& epoch_rng, RoundTally& tally);

/// The final phase: the i-th member (by id) of `groups[x]` moves to the i-th
/// sampled supernode of x; the new groups come back sorted by id. Empty if
/// some group has more members than samples.
std::vector<std::vector<sim::NodeId>> reassign_by_samples(
    std::span<const std::span<const sim::NodeId>> groups,
    const SamplingResult& sampled);

}  // namespace reconfnet::dos
