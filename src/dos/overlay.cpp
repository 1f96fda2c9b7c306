#include "dos/overlay.hpp"

#include <algorithm>
#include <cmath>

#include "audit/audit.hpp"
#include "audit/invariants.hpp"

namespace reconfnet::dos {
namespace {

std::vector<sim::NodeId> make_ids(std::size_t n) {
  std::vector<sim::NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

}  // namespace

int DosOverlay::choose_dimension(std::size_t n, double group_c) {
  const double log_n = std::log2(static_cast<double>(n));
  const double budget = static_cast<double>(n) / (group_c * log_n);
  int d = 1;
  while ((static_cast<double>(std::uint64_t{1} << (d + 1))) <= budget &&
         d < 30) {
    ++d;
  }
  return d;
}

DosOverlay::DosOverlay(const Config& config)
    : config_(config),
      rng_(config.seed),
      groups_(GroupTable::random(choose_dimension(config.size,
                                                  config.group_c),
                                 make_ids(config.size), rng_)) {
  edges_ = groups_.overlay_edges();
  rounds_.push_snapshot(groups_.all_nodes(), edges_);
}

RoundInput DosOverlay::round_input(const Attack& attack) const {
  RoundInput input = group_round_input(groups_, attack);
  input.edges = edges_;
  return input;
}

DosOverlay::EpochReport DosOverlay::finish(EpochReport report,
                                           std::string failure) const {
  if (failure.empty() && report.disconnected_rounds > 0) {
    failure = "disconnected";
  }
  report.success = failure.empty();
  report.failure_reason = std::move(failure);
  report.min_group_size = groups_.min_group_size();
  report.max_group_size = groups_.max_group_size();
  return report;
}

DosOverlay::EpochReport DosOverlay::run_static(const Attack& attack,
                                               sim::Round rounds) {
  EpochReport report;
  const RoundInput input = round_input(attack);
  // Keepalive broadcast only: one id per group member.
  const RoundCharge keepalive{
      static_cast<std::uint64_t>(groups_.max_group_size()) * kIdBits, 0};
  for (sim::Round r = 0; r < rounds; ++r) {
    rounds_.advance(input, keepalive, report);
  }
  return finish(std::move(report), "");
}

DosOverlay::EpochReport DosOverlay::run_epoch(const Attack& attack) {
  EpochReport report;
  const std::size_t n = groups_.size();
  const int d = groups_.dimension();
  const double avg_group = static_cast<double>(n) /
                           static_cast<double>(groups_.supernodes());
  const RoundInput input = round_input(attack);
  SamplingSpec spec;
  spec.n = n;
  spec.max_group = groups_.max_group_size();
  spec.dimension = d;
  spec.sampling = config_.sampling;
  spec.avg_group = avg_group;
  // Synchronization rounds relay the supernode's outgoing messages to the
  // whole group.
  spec.relay_group = avg_group;
  // Final reorganization phase: four rounds of group-to-group traffic
  // (assignments out, new groups gathered, neighbor groups exchanged, new
  // views delivered).
  spec.trailing_extra_bits = static_cast<std::uint64_t>(
      avg_group * avg_group * static_cast<double>(d + 1) *
      static_cast<double>(kIdBits));
  auto epoch_rng = rng_.split(static_cast<std::uint64_t>(rounds_.round()) + 3);
  const auto sampled =
      run_group_sampling(rounds_, input, spec, epoch_rng, report);
  if (!sampled.failure.empty()) {
    return finish(std::move(report), sampled.failure);
  }

  auto new_groups = reassign_by_samples(input.groups, sampled);
  if (new_groups.empty()) {
    return finish(std::move(report),
                  "too few samples for a group (|R(x)| > beta log n)");
  }
  if (std::any_of(new_groups.begin(), new_groups.end(),
                  [](const auto& members) { return members.empty(); })) {
    return finish(std::move(report), "reassignment left a supernode empty");
  }

  groups_ = GroupTable(d, std::move(new_groups));
  edges_ = groups_.overlay_edges();
  // Epoch-boundary audit (Section 5): the rebuilt groups partition the node
  // set with Theta(log n) representatives each, and the overlay edge list is
  // a well-formed undirected graph.
  if (audit::enabled()) {
    auto violations = audit::check_group_table(groups_, config_.group_c);
    for (auto& violation :
         audit::check_edge_symmetry(groups_.all_nodes(), edges_)) {
      // reconfnet-hotcheck: allow(RNH404) audit-only path, sizes unknowable
      violations.push_back(std::move(violation));
    }
    audit::enforce(std::move(violations));
  }
  rounds_.push_snapshot(groups_.all_nodes(), edges_);
  report.reorganized = true;
  return finish(std::move(report), "");
}

}  // namespace reconfnet::dos
