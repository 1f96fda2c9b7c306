// Full message-level implementation of the Section 5 group simulation: the
// replicated-state-machine protocol by which a group R(x) executes the rapid
// node sampling primitive on behalf of its supernode x.
//
// Every *primitive* round of Algorithm 2 is simulated in two overlay rounds:
//
//   Simulation round   Every available node of R(x) applies the supernode
//                      messages that arrived for x, advances x's sampler
//                      state by one primitive round using its own
//                      randomness, and sends its candidate new state (with
//                      x's outgoing messages) to all of R(x).
//
//   Synchronization    Every available node adopts the candidate of the
//   round              lowest-id available sender (the paper's rule),
//                      forwards each of x's outgoing messages to all
//                      members of the destination group, and rebroadcasts
//                      the adopted state so nodes that were blocked can
//                      rejoin the simulation.
//
// Afterwards the groups reorganize in four message rounds: assignments fan
// out to the sampled supernodes' old groups, the new groups R'(x) are
// gossiped back to the assigned nodes and to the neighboring groups, and
// every node ends up knowing its new group and its neighbors' groups
// (Lemma 15). Blocking follows the paper's delivery rule throughout, via
// sim::Bus, and communication work is metered for real.
//
// The protocol itself is transport::NodeProtocol, the one Section 5 state
// machine (also run lockstep by InprocDeployment and live over UDP);
// run_node_level_epoch, defined in transport/node_level.cpp, is its
// node-level driver under the DoS adversary. This is the high-fidelity
// counterpart of DosOverlay's group-level fast path; tests cross-validate
// the two (identical success conditions, consistent group statistics).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dos/group_table.hpp"
#include "sampling/schedule.hpp"
#include "sim/blocked.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::dos {

struct NodeLevelConfig {
  sampling::SamplingConfig sampling{};
};

struct NodeLevelReport {
  bool success = false;
  std::string failure_reason;
  sim::Round rounds = 0;
  /// Real metered communication work: max bits sent+received by any node in
  /// any round.
  std::uint64_t max_node_bits_per_round = 0;
  /// (group, round) pairs with no available member — Lemma 14 violations.
  std::size_t silenced_group_rounds = 0;
  /// Times a node had to resynchronize from a state broadcast after being
  /// blocked (the mechanism the per-round S(x) broadcast exists for).
  std::size_t resyncs = 0;
  /// The reorganized groups (present iff success).
  std::optional<GroupTable> new_groups;
  /// Every member of every new group learned the same group and the same
  /// neighbor groups (the Lemma 15 postcondition).
  bool knowledge_consistent = false;
};

/// Runs one full epoch (sampler simulation + reorganization) at message
/// granularity. `blocked_per_round[r]` is the DoS adversary's blocked set in
/// overlay round r (missing entries = nothing blocked). Availability follows
/// the paper's rule: a node is available in round r iff it is non-blocked in
/// rounds r-1 and r.
NodeLevelReport run_node_level_epoch(
    const GroupTable& groups, const NodeLevelConfig& config,
    std::span<const sim::BlockedSet> blocked_per_round, support::Rng& rng);

}  // namespace reconfnet::dos
