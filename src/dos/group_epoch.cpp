#include "dos/group_epoch.hpp"

#include <algorithm>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"
#include "graph/connectivity.hpp"
#include "sim/stale_view.hpp"

namespace reconfnet::dos {
namespace {

bool connected_excluding(const RoundInput& input,
                         const sim::BlockedSet& blocked) {
  if (input.build_edges) {
    return graph::is_connected_excluding(input.nodes, input.build_edges(),
                                         blocked);
  }
  return graph::is_connected_excluding(input.nodes, input.edges, blocked);
}

}  // namespace

RoundInput group_round_input(const GroupTable& table, const Attack& attack) {
  RoundInput input;
  input.attack = attack;
  input.nodes = table.all_nodes();
  input.groups.reserve(table.supernodes());
  for (std::uint64_t x = 0; x < table.supernodes(); ++x) {
    input.groups.emplace_back(table.group(x));
  }
  return input;
}

void GroupRounds::push_snapshot(std::vector<sim::NodeId> nodes,
                                std::vector<Edge> edges) {
  sim::TopologySnapshot snap;
  snap.round = round_;
  snap.nodes = std::move(nodes);
  snap.edges = std::move(edges);
  snapshots_.push(std::move(snap));
}

void GroupRounds::advance(const RoundInput& input, RoundCharge charge,
                          RoundTally& tally) {
  const Attack& attack = input.attack;
  sim::BlockedSet blocked;
  if (attack.adversary != nullptr) {
    const auto budget = static_cast<std::size_t>(
        attack.blocked_fraction * static_cast<double>(input.nodes.size()));
    snapshots_.ensure_lateness_horizon(attack.lateness);
    const sim::StaleSnapshotView stale =
        sim::serve_stale(snapshots_, round_, attack.lateness);
    blocked = attack.adversary->choose(stale, input.nodes, budget, round_);
    // Round-boundary audit: an r-bounded adversary must respect its budget
    // and may only block ids that exist or once existed (Section 1.1).
    if (audit::enabled()) {
      audit::enforce(input.known_ids != nullptr
                         ? audit::check_blocked_budget(blocked, budget,
                                                       *input.known_ids)
                         : audit::check_blocked_budget(blocked, budget,
                                                       input.nodes));
    }
  }
  if (input.crashed != nullptr) {
    // reconfnet-lint: allow(RNL005) set union into a BlockedSet; the
    // result's contents do not depend on the iteration order
    for (const sim::NodeId node : *input.crashed) blocked.insert(node);
  }

  std::uint64_t max_bits = 0;
  for (const auto members : input.groups) {
    std::size_t available = 0;
    for (const sim::NodeId node : members) {
      // Available in round i: non-blocked in rounds i-1 and i (it can both
      // receive the previous round's messages and act now).
      if (!blocked.contains(node) && !blocked_prev_.contains(node)) {
        ++available;
      }
    }
    if (available == 0) ++tally.silenced_group_rounds;
    tally.min_available_fraction =
        std::min(tally.min_available_fraction,
                 static_cast<double>(available) /
                     static_cast<double>(members.size()));
    const std::uint64_t per_node_bits =
        (static_cast<std::uint64_t>(members.size()) + available) *
            charge.state_bits +
        charge.extra_bits;
    max_bits = std::max(max_bits, per_node_bits);
  }
  tally.max_node_bits_per_round =
      std::max(tally.max_node_bits_per_round, max_bits);

  // Every group is non-empty and every supernode graph is connected, so an
  // unblocked overlay is connected: only blocked rounds need the check.
  if (!blocked.empty() && !connected_excluding(input, blocked)) {
    ++tally.disconnected_rounds;
  }
  blocked_prev_ = std::move(blocked);
  if (input.on_round_end) input.on_round_end(round_);
  ++round_;
  ++tally.rounds;
}

SamplingResult run_group_sampling(GroupRounds& rounds,
                                  const RoundInput& input,
                                  const SamplingSpec& spec,
                                  support::Rng& epoch_rng,
                                  RoundTally& tally) {
  // The final phase assigns the i-th representative of R(x) to the i-th
  // sampled supernode, so every supernode needs at least max |R(x)| samples
  // (beta = 2(1+delta)c in Lemma 16's terms). Raise the schedule constant
  // adaptively.
  const auto estimate = sampling::SizeEstimate::from_true_size(spec.n);
  auto sampling_config = spec.sampling;
  const double needed_c = static_cast<double>(spec.max_group + 1) /
                          static_cast<double>(estimate.log_n_estimate());
  sampling_config.c = std::max(sampling_config.c, needed_c);
  sampling_config.beta = std::min(sampling_config.beta, sampling_config.c);
  const auto schedule =
      sampling::hypercube_schedule(estimate, spec.dimension, sampling_config);

  // One sampler core per supernode; its execution is what the group
  // replicates (Lemma 14). Randomness is injected per supernode.
  const std::uint64_t count = std::uint64_t{1} << spec.dimension;
  SamplingResult result;
  auto& cores = result.cores;
  std::vector<support::Rng> core_rngs;
  cores.reserve(count);
  core_rngs.reserve(count);
  for (std::uint64_t x = 0; x < count; ++x) {
    cores.emplace_back(spec.dimension, x, schedule);
    core_rngs.push_back(epoch_rng.split(x));
    cores.back().init(core_rngs.back());
  }

  // S(x) carries the sampler state: every block entry is a supernode label
  // plus references to that supernode's representatives.
  auto state_bits_now = [&]() -> std::uint64_t {
    if (spec.avg_group == 0.0) return 0;
    std::size_t entries = 0;
    for (int j = 1; j <= spec.dimension; ++j) {
      entries += cores[0].block(j).size();
    }
    const double per_entry = static_cast<double>(spec.dimension) +
                             spec.avg_group * static_cast<double>(kIdBits);
    return 16 +
           static_cast<std::uint64_t>(static_cast<double>(entries) *
                                      per_entry) +
           static_cast<std::uint64_t>(spec.avg_group) * kIdBits;
  };

  // Per-supernode scratch reused across iterations; `outgoing` entries are
  // overwritten wholesale, `responses` entries are cleared (capacity
  // retained) at the top of each iteration.
  std::vector<std::vector<
      std::pair<std::uint64_t, sampling::HypercubeSamplerCore::Request>>>
      outgoing(count);
  std::vector<std::vector<sampling::HypercubeSamplerCore::Response>>
      responses(count);
  for (int i = 1; i <= schedule.iterations; ++i) {
    const RoundCharge simulate{state_bits_now(), 0};
    const RoundCharge synchronize{
        simulate.state_bits,
        static_cast<std::uint64_t>(
            static_cast<double>(schedule.m[static_cast<std::size_t>(i)]) *
            spec.relay_group * static_cast<double>(kIdBits))};
    // Primitive request round = simulation round + synchronization round.
    rounds.advance(input, simulate, tally);
    rounds.advance(input, synchronize, tally);
    for (std::uint64_t x = 0; x < count; ++x) {
      outgoing[x] = cores[x].make_requests(i, core_rngs[x]);
    }
    // Primitive response round = simulation round + synchronization round.
    rounds.advance(input, simulate, tally);
    rounds.advance(input, synchronize, tally);
    for (auto& per_node : responses) per_node.clear();
    for (std::uint64_t x = 0; x < count; ++x) {
      for (const auto& [dest, request] : outgoing[x]) {
        if (spec.lost && spec.lost(x, dest)) continue;
        auto response = cores[dest].serve(request, i, core_rngs[dest]);
        if (spec.lost && spec.lost(dest, request.requester)) continue;
        responses[request.requester].push_back(response);
      }
    }
    // Both touch only core x, so each core can finish the iteration alone.
    for (std::uint64_t x = 0; x < count; ++x) {
      cores[x].discard_consumed(i);
      for (const auto& response : responses[x]) {
        cores[x].accept(response, core_rngs[x]);
      }
    }
  }

  result.state_bits = state_bits_now();
  for (int r = 0; r < spec.trailing_rounds; ++r) {
    rounds.advance(input, {result.state_bits, spec.trailing_extra_bits},
                   tally);
  }

  // Lemma 14/15 require at least one available node per group per round; if
  // the adversary ever silenced a whole group, the epoch's simulation is not
  // trustworthy and the old groups stay.
  std::size_t dry = 0;
  for (const auto& core : cores) dry += core.dry_events();
  if (tally.silenced_group_rounds > 0) {
    result.failure = "a group was silenced";
  } else if (dry > 0) {
    result.failure = std::string(spec.unit) + " sampling ran dry";
  }
  return result;
}

std::vector<std::vector<sim::NodeId>> reassign_by_samples(
    std::span<const std::span<const sim::NodeId>> groups,
    const SamplingResult& sampled) {
  std::vector<std::vector<sim::NodeId>> fresh(groups.size());
  for (std::size_t x = 0; x < groups.size(); ++x) {
    const auto members = groups[x];  // sorted by id
    const auto& samples = sampled.cores[x].samples();
    if (samples.size() < members.size()) return {};
    for (std::size_t i = 0; i < members.size(); ++i) {
      fresh[samples[i]].push_back(members[i]);
    }
  }
  for (auto& members : fresh) std::sort(members.begin(), members.end());
  return fresh;
}

}  // namespace reconfnet::dos
