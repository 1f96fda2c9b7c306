#include "apps/dht/kary_overlay.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>


namespace reconfnet::apps {
namespace {

bool is_power_of_two(int value) {
  return value >= 2 && (value & (value - 1)) == 0;
}

int log2_exact(int value) {
  int bits = 0;
  while ((1 << bits) < value) ++bits;
  return bits;
}

/// The initial configuration: every server joins a uniformly random vertex;
/// a rare empty group takes a node from the largest group.
dos::GroupTable random_groups(const KaryGroupedOverlay::Config& config,
                              const graph::KaryHypercube& cube,
                              support::Rng& rng) {
  if (!is_power_of_two(config.arity)) {
    throw std::invalid_argument(
        "KaryGroupedOverlay: arity must be a power of two");
  }
  std::vector<std::vector<sim::NodeId>> groups(cube.size());
  for (std::size_t i = 0; i < config.size; ++i) {
    groups[rng.below(cube.size())].push_back(static_cast<sim::NodeId>(i));
  }
  for (auto& members : groups) {
    if (members.empty()) {
      auto largest = std::max_element(
          groups.begin(), groups.end(),
          [](const auto& a, const auto& b) { return a.size() < b.size(); });
      members.push_back(largest->back());
      largest->pop_back();
    }
    std::sort(members.begin(), members.end());
  }
  return {cube.dimension() * log2_exact(config.arity), std::move(groups)};
}

}  // namespace

int KaryGroupedOverlay::choose_dimension(std::size_t n, int arity,
                                         double group_c) {
  const double budget = static_cast<double>(n) /
                        (group_c * std::log2(static_cast<double>(n)));
  int d = 1;
  double next = static_cast<double>(arity) * arity;
  while (next <= budget && d < 20) {
    ++d;
    next *= arity;
  }
  return d;
}

KaryGroupedOverlay::KaryGroupedOverlay(const Config& config)
    : config_(config),
      rng_(config.seed),
      cube_(config.arity,
            choose_dimension(config.size, config.arity, config.group_c)),
      groups_(random_groups(config, cube_, rng_)) {
  push_snapshot();
}

std::vector<std::pair<sim::NodeId, sim::NodeId>>
KaryGroupedOverlay::overlay_edges() const {
  std::vector<std::pair<sim::NodeId, sim::NodeId>> edges;
  for (std::uint64_t x = 0; x < groups_.supernodes(); ++x) {
    const auto& members = groups_.group(x);
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = i + 1; j < members.size(); ++j) {
        edges.emplace_back(members[i], members[j]);
      }
    }
    for (std::uint64_t y : cube_.neighbors(x)) {
      if (y < x) continue;
      for (sim::NodeId a : members) {
        for (sim::NodeId b : groups_.group(y)) edges.emplace_back(a, b);
      }
    }
  }
  return edges;
}

bool KaryGroupedOverlay::group_available(
    std::uint64_t x, std::size_t round,
    std::span<const sim::BlockedSet> blocked_per_round) const {
  static const sim::BlockedSet kNone;
  const auto& now =
      round < blocked_per_round.size() ? blocked_per_round[round] : kNone;
  const auto& before = (round > 0 && round - 1 < blocked_per_round.size())
                           ? blocked_per_round[round - 1]
                           : kNone;
  const auto& members = groups_.group(x);
  return std::any_of(members.begin(), members.end(),
                     [&](sim::NodeId node) {
                       return !now.contains(node) && !before.contains(node);
                     });
}

void KaryGroupedOverlay::push_snapshot() {
  rounds_.push_snapshot(all_nodes(), config_.snapshot_edges
                                         ? overlay_edges()
                                         : std::vector<dos::Edge>{});
}

bool KaryGroupedOverlay::message_lost(std::uint64_t from, std::uint64_t to) {
  fate_.clear();
  fault_hook_->on_message(static_cast<sim::NodeId>(from),
                          static_cast<sim::NodeId>(to), rounds_.round(),
                          fate_);
  if (fate_.empty()) return true;
  for (const sim::Round delay : fate_) {
    if (delay == 0) return false;
  }
  // All copies delayed past the synchronous exchange window.
  return true;
}

KaryGroupedOverlay::EpochReport KaryGroupedOverlay::run_epoch(
    const Attack& attack) {
  EpochReport report;
  dos::RoundInput input = dos::group_round_input(groups_, attack);
  // Built only in rounds that block someone: the quadratic edge list is the
  // dominant cost at n = 10^5.
  input.build_edges = [this] { return overlay_edges(); };
  dos::SamplingSpec spec;
  spec.n = config_.size;
  spec.max_group = max_group_size();
  // k-ary vertices are sampled through the binary hypercube over
  // d * log2(k) coordinates (identity vertex encoding for k = 2^j).
  spec.dimension = groups_.dimension();
  spec.sampling = config_.sampling;
  if (fault_hook_ != nullptr) {
    // The hook's clock ticks once per epoch round, and the request and
    // response legs of the sampler exchange are ordinary wire traffic to the
    // fault layer: a lost leg starves the requester (and may fail the epoch
    // through the dry-sampler check).
    input.on_round_end = [this](sim::Round round) {
      fault_hook_->on_step(round);
    };
    spec.lost = [this, &report](std::uint64_t from, std::uint64_t to) {
      if (!message_lost(from, to)) return false;
      ++report.fault_dropped_messages;
      return true;
    };
  }
  auto epoch_rng = rng_.split(static_cast<std::uint64_t>(rounds_.round()) + 11);
  const auto sampled =
      dos::run_group_sampling(rounds_, input, spec, epoch_rng, report);

  auto finish = [&](std::string reason) {
    report.success = reason.empty();
    report.failure_reason = std::move(reason);
    report.min_group_size = min_group_size();
    report.max_group_size = max_group_size();
    return report;
  };
  if (!sampled.failure.empty()) return finish(sampled.failure);
  auto fresh = dos::reassign_by_samples(input.groups, sampled);
  if (fresh.empty()) return finish("too few samples for a group");
  if (std::any_of(fresh.begin(), fresh.end(),
                  [](const auto& members) { return members.empty(); })) {
    return finish("reassignment left a supernode empty");
  }
  groups_ = dos::GroupTable(groups_.dimension(), std::move(fresh));
  push_snapshot();
  report.reorganized = true;
  return finish(report.disconnected_rounds == 0 ? "" : "disconnected");
}

}  // namespace reconfnet::apps
