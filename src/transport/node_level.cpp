// dos::run_node_level_epoch (declared in dos/node_sim.hpp): one Section 5
// epoch at message granularity, driven over n transport::NodeProtocol
// instances on one sim::Bus<Message>. The protocol decides everything a node
// does; the driver adds only what the DoS model owns — which nodes run in a
// round (the available ones) and which messages the bus delivers (the
// adversary's blocked sets) — plus the paper's communication cost model and
// the report, read off each node's final replica and its Lemma 15 view.
#include <algorithm>
#include <memory>
#include <vector>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "dos/node_sim.hpp"
#include "sim/bus.hpp"
#include "sim/metrics.hpp"
#include "transport/node_protocol.hpp"

namespace reconfnet::dos {

NodeLevelReport run_node_level_epoch(
    const GroupTable& groups, const NodeLevelConfig& config,
    std::span<const sim::BlockedSet> blocked_per_round, support::Rng& rng) {
  using transport::Message;
  using transport::MsgKind;
  using transport::NodeProtocol;

  NodeLevelReport report;
  const int d = groups.dimension();
  const double avg_group = static_cast<double>(groups.size()) /
                           static_cast<double>(groups.supernodes());

  // The paper's cost model (bits), charged to the bus. A sampler state
  // carries every multiset entry as a supernode label plus references to
  // that supernode's representatives.
  const auto state_bits =
      [&](const transport::SamplerState& state) -> std::uint64_t {
    std::size_t entries = 0;
    for (const auto& block : state.blocks) entries += block.size();
    const double per_entry = static_cast<double>(d) + avg_group * 64.0;
    return 32 + static_cast<std::uint64_t>(
                    static_cast<double>(entries) * per_entry);
  };
  const std::uint64_t super_bits = 64 + 16;
  const auto group_bits = [](std::size_t members) -> std::uint64_t {
    return static_cast<std::uint64_t>(members) * 64 + 16;
  };
  const auto paper_bits = [&](const Message& msg) -> std::uint64_t {
    const transport::Body& body = msg.contents();
    switch (msg.kind) {
      case MsgKind::kCandidate:  // state + the supernode's outbox
        return state_bits(body.state) +
               static_cast<std::uint64_t>(body.outbox.size()) * super_bits;
      case MsgKind::kStateBroadcast:
        return state_bits(body.state);
      case MsgKind::kSuper:
        return super_bits;
      case MsgKind::kAssign:  // assigned id + supernode tag
        return 64 + 16;
      case MsgKind::kNewGroup:
      case MsgKind::kNeighborGroup:
        return group_bits(body.group.size());
      default:  // sent only past round D, where the epoch stops
        return 0;
    }
  };

  // One protocol per node, x-major and id-ascending: the order nodes act in
  // every round, which fixes the order of every inbox.
  NodeProtocol::Config protocol_config;
  protocol_config.sampling = config.sampling;
  protocol_config.first_master = rng;
  const auto table = std::make_shared<const GroupTable>(groups);
  std::vector<NodeProtocol> nodes;
  nodes.reserve(groups.size());
  for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
    for (const sim::NodeId id : groups.group(x)) {
      nodes.emplace_back(id, table, protocol_config);
      // Advance the caller's stream past the splits each protocol replays.
      (void)rng.split(0xA000 + x);
      (void)rng.split(0xB0000 + id);
    }
  }

  static const sim::BlockedSet kNone;
  const auto blocked_at = [&](sim::Round r) -> const sim::BlockedSet& {
    const auto index = static_cast<std::size_t>(r);
    return index < blocked_per_round.size() ? blocked_per_round[index]
                                            : kNone;
  };
  const auto is_available = [&](sim::NodeId id, sim::Round r) {
    if (blocked_at(r).contains(id)) return false;
    return r == 0 || !blocked_at(r - 1).contains(id);
  };

  // The sampler simulation (2 rounds per primitive round) and the four
  // reorganization rounds A-D. The all-gather and commit rounds that follow
  // serve live nodes, which cannot read the new table out of shared memory.
  sim::WorkMeter meter;
  sim::Bus<Message> bus(&meter);
  NodeProtocol::Outbox outbox;
  const int primitive_rounds = nodes.front().primitive_rounds();
  const sim::Round epoch_rounds = 2 * primitive_rounds + 4;
  for (sim::Round round = 0; round < epoch_rounds; ++round) {
    auto node = nodes.begin();
    for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
      bool silenced = true;
      for (const sim::NodeId id : groups.group(x)) {
        NodeProtocol& protocol = *node++;
        if (!is_available(id, round)) continue;
        silenced = false;
        outbox.clear();
        protocol.on_round(round, bus.inbox(id), outbox, {});
        for (auto& [to, msg] : outbox) {
          const std::uint64_t bits = paper_bits(msg);
          bus.send(id, to, std::move(msg), bits);
        }
      }
      if (silenced) ++report.silenced_group_rounds;
    }
    bus.step(blocked_at(round), blocked_at(round + 1));
  }

  report.rounds = bus.round();
  report.max_node_bits_per_round = meter.max_node_bits_any_round();

  // Bus-level conservation audit (Section 1.1): over every finished round,
  // messages delivered never exceed messages sent and dropped messages
  // account exactly for the difference. The per-delivery blocking rule is
  // audited inside Bus::step itself.
  if (audit::enabled()) {
    audit::enforce(audit::check_bus_conservation(meter));
  }

  bool sample_shortage = false;
  for (const NodeProtocol& protocol : nodes) {
    report.resyncs += static_cast<std::size_t>(protocol.metrics().resyncs);
    sample_shortage =
        sample_shortage || protocol.metrics().sample_shortages > 0;
  }
  if (report.silenced_group_rounds > 0) {
    report.failure_reason = "a group was silenced";
    return report;
  }
  if (sample_shortage) {
    report.failure_reason = "too few samples for a group";
    return report;
  }

  // Ground truth: the canonical final state per supernode is whatever the
  // group's members adopted (they must all agree once they reached the final
  // primitive round), and the new groups follow from its samples (M_1).
  std::vector<std::vector<sim::NodeId>> fresh_groups(groups.supernodes());
  auto node = nodes.cbegin();
  for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
    const std::vector<std::uint64_t>* canonical = nullptr;
    for (std::size_t i = 0; i < groups.group(x).size(); ++i) {
      const transport::SamplerState& replica = (node++)->replica();
      if (replica.seq != primitive_rounds) continue;
      if (canonical == nullptr) {
        canonical = &replica.blocks.front();
      } else if (*canonical != replica.blocks.front()) {
        report.failure_reason = "replicas of a supernode state diverged";
        return report;
      }
    }
    if (canonical == nullptr) {
      report.failure_reason = "no replica completed the simulation";
      return report;
    }
    const auto& members = groups.group(x);
    for (std::size_t i = 0; i < members.size(); ++i) {
      fresh_groups[(*canonical)[i]].push_back(members[i]);
    }
  }
  for (auto& members : fresh_groups) std::sort(members.begin(), members.end());

  // Lemma 15 postcondition: every node that could receive in the final
  // rounds knows its correct new group and all its correct neighbor groups.
  bool consistent = true;
  const sim::Round round_c = report.rounds - 2;
  const sim::Round round_d = report.rounds - 1;
  for (const NodeProtocol& protocol : nodes) {
    const sim::NodeId id = protocol.self();
    if (!is_available(id, round_c) || !is_available(id, round_d)) continue;
    const NodeProtocol::GroupView& view = protocol.group_view();
    if (view.own == nullptr) {
      consistent = false;
      continue;
    }
    if (view.own->group != fresh_groups[view.own_supernode]) {
      consistent = false;
    }
    for (int bit = 0; bit < d; ++bit) {
      const std::uint64_t y = view.own_supernode ^ (std::uint64_t{1} << bit);
      const auto neighbor = view.neighbors.find(y);
      if (neighbor == view.neighbors.end() ||
          neighbor->second->group != fresh_groups[y]) {
        consistent = false;
      }
    }
  }
  report.knowledge_consistent = consistent;
  if (!consistent) {
    report.failure_reason = "inconsistent group knowledge";
    return report;
  }
  if (std::any_of(fresh_groups.begin(), fresh_groups.end(),
                  [](const auto& members) { return members.empty(); })) {
    report.failure_reason = "reassignment left a supernode empty";
    return report;
  }
  report.new_groups.emplace(d, std::move(fresh_groups));
  report.success = true;
  return report;
}

}  // namespace reconfnet::dos
