// The DoS-resistant overlay of Section 5. Nodes form groups representing the
// supernodes of a d-dimensional hypercube (d maximal with
// 2^d <= n / (c log n)) and rebuild the groups every Theta(log log n) rounds:
// the groups jointly simulate the rapid node sampling primitive (Algorithm 2)
// for their supernodes — every available representative executes the
// supernode's step and the lowest-id available node's version is adopted —
// and a final four-round phase reassigns every node to a uniformly random
// supernode. A (1/2 - eps)-bounded adversary that only sees topology
// information at least Omega(log log n) rounds old cannot tell which nodes
// currently share a group, so w.h.p. every group keeps an available node in
// every round and the non-blocked nodes stay connected (Theorem 6).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dos/group_epoch.hpp"
#include "dos/group_table.hpp"
#include "sampling/schedule.hpp"
#include "sim/snapshot.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::dos {

class DosOverlay {
 public:
  struct Config {
    std::size_t size = 1024;
    /// Group-size constant: dimension d is maximal with
    /// 2^d <= size / (group_c * log2 size).
    double group_c = 1.0;
    sampling::SamplingConfig sampling{};
    std::uint64_t seed = 1;
  };

  using Attack = dos::Attack;

  struct EpochReport : RoundTally {
    bool success = false;
    std::string failure_reason;
    bool reorganized = false;  ///< groups were rebuilt at the end
    std::size_t min_group_size = 0;  ///< after the epoch
    std::size_t max_group_size = 0;
  };

  explicit DosOverlay(const Config& config);

  /// Runs one full reconfiguration epoch under the given attack.
  EpochReport run_epoch(const Attack& attack);

  /// Baseline: runs `rounds` rounds with reconfiguration switched off (the
  /// groups never change), under the same attack and metrics. This is the
  /// static overlay the paper's introduction argues cannot survive once the
  /// adversary learns the topology.
  EpochReport run_static(const Attack& attack, sim::Round rounds);

  [[nodiscard]] const GroupTable& groups() const { return groups_; }
  /// Per-round topology snapshots (what a t-late adversary observes); also
  /// the reproducibility witness compared by the determinism tests.
  [[nodiscard]] const sim::SnapshotBuffer& snapshots() const {
    return rounds_.snapshots();
  }
  [[nodiscard]] int dimension() const { return groups_.dimension(); }
  [[nodiscard]] std::size_t size() const { return groups_.size(); }
  [[nodiscard]] sim::Round round() const { return rounds_.round(); }

  /// Chooses the paper's dimension: max d with 2^d <= n / (c log2 n).
  static int choose_dimension(std::size_t n, double group_c);

 private:
  Config config_;
  support::Rng rng_;
  GroupTable groups_;
  std::vector<Edge> edges_;  // current topology
  GroupRounds rounds_;

  /// The current groups for the blocking rounds under `attack`.
  [[nodiscard]] RoundInput round_input(const Attack& attack) const;
  /// Completes `report`: `failure` (or "disconnected") and group sizes.
  [[nodiscard]] EpochReport finish(EpochReport report,
                                   std::string failure) const;
};

}  // namespace reconfnet::dos
