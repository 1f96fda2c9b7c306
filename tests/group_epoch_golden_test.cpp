// Frozen oracle for the group-level Section 5 epoch that DosOverlay,
// CombinedOverlay and the DHT's KaryGroupedOverlay run: digests of every
// EpochReport field and of the final groups, pinned from the three
// overlays' own epoch loops before they were merged into dos/group_epoch.
// Any change to the adversary's view, the blocking round's tally, the
// sampler's rng streams, the exchange filter or the work charge moves a
// digest.
//
// At every epoch boundary each case also asserts that the overlay is
// connected with nothing blocked: every group is non-empty and every
// supernode graph is connected, which is what lets a blocking round skip
// the connectivity check when the adversary blocks nobody.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "adversary/churn.hpp"
#include "adversary/dos.hpp"
#include "apps/dht/kary_overlay.hpp"
#include "combined/overlay.hpp"
#include "dos/overlay.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "graph/connectivity.hpp"
#include "support/rng.hpp"

namespace reconfnet {
namespace {

class Fnv {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (value >> (8 * byte)) & 0xFFu;
      state_ *= 0x100000001B3ULL;
    }
  }
  void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }
  void add(const std::string& text) {
    add(static_cast<std::uint64_t>(text.size()));
    for (const char c : text) add(static_cast<std::uint64_t>(c));
  }
  void add_ids(const std::vector<sim::NodeId>& ids) {
    add(static_cast<std::uint64_t>(ids.size()));
    for (const sim::NodeId id : ids) add(static_cast<std::uint64_t>(id));
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

// --- DosOverlay --------------------------------------------------------------

void add_report(Fnv& fnv, const dos::DosOverlay::EpochReport& report) {
  fnv.add(static_cast<std::uint64_t>(report.success));
  fnv.add(report.failure_reason);
  fnv.add(static_cast<std::uint64_t>(report.reorganized));
  fnv.add(static_cast<std::uint64_t>(report.rounds));
  fnv.add(static_cast<std::uint64_t>(report.silenced_group_rounds));
  fnv.add(static_cast<std::uint64_t>(report.disconnected_rounds));
  fnv.add(report.min_available_fraction);
  fnv.add(static_cast<std::uint64_t>(report.min_group_size));
  fnv.add(static_cast<std::uint64_t>(report.max_group_size));
  fnv.add(report.max_node_bits_per_round);
}

void add_groups(Fnv& fnv, const dos::DosOverlay& overlay) {
  for (std::uint64_t x = 0; x < overlay.groups().supernodes(); ++x) {
    fnv.add_ids(overlay.groups().group(x));
  }
}

void expect_connected(const dos::DosOverlay& overlay) {
  EXPECT_TRUE(graph::is_connected(overlay.groups().all_nodes(),
                                  overlay.groups().overlay_edges()));
}

struct DosCase {
  /// "random", "isolation", "none" (no attack) or "static" (run_static
  /// under RandomDos).
  std::string_view adversary;
  int lateness;
  std::uint64_t seed;
  std::uint64_t expected;
};

// Test names carry the inputs, never the digest.
void PrintTo(const DosCase& c, std::ostream* out) {
  *out << c.adversary << "/late" << c.lateness << "/seed" << c.seed;
}

class GroupEpochGoldenDos : public ::testing::TestWithParam<DosCase> {};

TEST_P(GroupEpochGoldenDos, MatchesFrozenDigest) {
  const DosCase& c = GetParam();
  dos::DosOverlay::Config config;
  config.size = 512;
  config.group_c = 1.0;
  config.seed = c.seed;
  dos::DosOverlay overlay(config);
  support::Rng rng(c.seed * 7 + 1);
  adversary::RandomDos random(rng.split(1));
  adversary::IsolationDos isolation(rng.split(2));
  dos::DosOverlay::Attack attack;
  attack.adversary = c.adversary == "isolation"
                         ? static_cast<adversary::DosAdversary*>(&isolation)
                     : c.adversary == "none" ? nullptr
                                             : &random;
  attack.lateness = c.lateness;
  attack.blocked_fraction = 0.25;

  Fnv fnv;
  expect_connected(overlay);
  if (c.adversary == "static") {
    add_report(fnv, overlay.run_static(attack, 40));
  } else {
    for (int epoch = 0; epoch < 3; ++epoch) {
      add_report(fnv, overlay.run_epoch(attack));
      expect_connected(overlay);
    }
  }
  add_groups(fnv, overlay);
  EXPECT_EQ(fnv.value(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Attacks, GroupEpochGoldenDos,
    ::testing::Values(DosCase{"random", 0, 11, 0xba9f0f28c9cac4ceull},
                      DosCase{"random", 60, 12, 0x3a82c0f1d860eb8dull},
                      DosCase{"isolation", 0, 13, 0xe3136d15b1ae6121ull},
                      DosCase{"isolation", 60, 14, 0x9bc9bbf9307d6754ull},
                      DosCase{"static", 0, 15, 0xd86bb56cb247dcddull},
                      DosCase{"none", 0, 16, 0xcf1a9d0aec478718ull}));

// --- CombinedOverlay ---------------------------------------------------------

struct SeedCase {
  std::uint64_t seed;
  std::uint64_t expected;
};

void PrintTo(const SeedCase& c, std::ostream* out) { *out << c.seed; }

class GroupEpochGoldenCombined : public ::testing::TestWithParam<SeedCase> {};

/// UniformChurn and a 60-late IsolationDos together, with one member
/// crashed after the first epoch.
TEST_P(GroupEpochGoldenCombined, MatchesFrozenDigest) {
  const std::uint64_t seed = GetParam().seed;
  combined::CombinedOverlay::Config config;
  config.initial_size = 512;
  config.group_c = 2.0;
  config.seed = seed;
  combined::CombinedOverlay overlay(config);
  support::Rng rng(seed);
  adversary::UniformChurn churn(0.005, 1.0, 4.0, rng.split(1));
  adversary::IsolationDos isolation(rng.split(2));
  combined::CombinedOverlay::Attack attack;
  attack.adversary = &isolation;
  attack.lateness = 60;
  attack.blocked_fraction = 0.25;

  Fnv fnv;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto report = overlay.run_epoch(churn, attack);
    fnv.add(static_cast<std::uint64_t>(report.success));
    fnv.add(report.failure_reason);
    fnv.add(static_cast<std::uint64_t>(report.reorganized));
    fnv.add(static_cast<std::uint64_t>(report.rounds));
    fnv.add(static_cast<std::uint64_t>(report.silenced_group_rounds));
    fnv.add(static_cast<std::uint64_t>(report.disconnected_rounds));
    fnv.add(report.min_available_fraction);
    fnv.add(static_cast<std::uint64_t>(report.min_dimension));
    fnv.add(static_cast<std::uint64_t>(report.max_dimension));
    fnv.add(static_cast<std::uint64_t>(report.split_merge.splits));
    fnv.add(static_cast<std::uint64_t>(report.split_merge.merges));
    fnv.add(static_cast<std::uint64_t>(report.split_merge.sweeps));
    fnv.add(static_cast<std::uint64_t>(report.joins_applied));
    fnv.add(static_cast<std::uint64_t>(report.leaves_applied));
    fnv.add(static_cast<std::uint64_t>(report.members_after));
    fnv.add(static_cast<std::uint64_t>(report.min_group_size));
    fnv.add(static_cast<std::uint64_t>(report.max_group_size));
    fnv.add(report.max_node_bits_per_round);
    EXPECT_TRUE(graph::is_connected(overlay.members(),
                                    overlay.supernodes().overlay_edges()));
    if (epoch == 0) overlay.crash(overlay.members()[overlay.size() / 2]);
  }
  for (const auto& [key, entry] : overlay.supernodes().groups()) {
    fnv.add(key);
    fnv.add_ids(entry.second);
  }
  EXPECT_EQ(fnv.value(), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GroupEpochGoldenCombined,
    ::testing::Values(SeedCase{21, 0x15263242c6efa87eull},
                      SeedCase{22, 0x26c95c284aa29eb7ull}));

// --- KaryGroupedOverlay ------------------------------------------------------

struct KaryCase {
  bool fault_hook;
  bool snapshot_edges;
  std::uint64_t seed;
  std::uint64_t expected;
};

void PrintTo(const KaryCase& c, std::ostream* out) {
  *out << (c.fault_hook ? "faults" : "nofaults") << "/"
       << (c.snapshot_edges ? "edges" : "noedges") << "/seed" << c.seed;
}

class GroupEpochGoldenKary : public ::testing::TestWithParam<KaryCase> {};

/// A 60-late IsolationDos (which reads the snapshot edges when they are
/// kept), optionally with a lossy, delaying fault hook on the sampler
/// exchange.
TEST_P(GroupEpochGoldenKary, MatchesFrozenDigest) {
  const KaryCase& c = GetParam();
  apps::KaryGroupedOverlay::Config config;
  config.size = 512;
  config.arity = 4;
  config.group_c = 1.0;
  config.snapshot_edges = c.snapshot_edges;
  config.seed = c.seed;
  apps::KaryGroupedOverlay overlay(config);
  support::Rng rng(c.seed);
  fault::FaultInjector injector(
      fault::FaultPlan{}.with_loss(0.02).with_delay(0.02, 2), rng.split(3));
  if (c.fault_hook) overlay.set_fault_hook(&injector);
  adversary::IsolationDos isolation(rng.split(2));
  apps::KaryGroupedOverlay::Attack attack;
  attack.adversary = &isolation;
  attack.lateness = 60;
  attack.blocked_fraction = 0.2;

  Fnv fnv;
  for (int epoch = 0; epoch < 3; ++epoch) {
    const auto report = overlay.run_epoch(attack);
    fnv.add(static_cast<std::uint64_t>(report.success));
    fnv.add(report.failure_reason);
    fnv.add(static_cast<std::uint64_t>(report.reorganized));
    fnv.add(static_cast<std::uint64_t>(report.rounds));
    fnv.add(static_cast<std::uint64_t>(report.silenced_group_rounds));
    fnv.add(static_cast<std::uint64_t>(report.disconnected_rounds));
    fnv.add(report.min_available_fraction);
    fnv.add(static_cast<std::uint64_t>(report.min_group_size));
    fnv.add(static_cast<std::uint64_t>(report.max_group_size));
    fnv.add(static_cast<std::uint64_t>(report.fault_dropped_messages));
    EXPECT_TRUE(
        graph::is_connected(overlay.all_nodes(), overlay.overlay_edges()));
  }
  for (std::uint64_t x = 0; x < overlay.cube().size(); ++x) {
    fnv.add_ids(overlay.group(x));
  }
  EXPECT_EQ(fnv.value(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Hooks, GroupEpochGoldenKary,
    ::testing::Values(KaryCase{false, true, 31, 0xe5e6586407673535ull},
                      KaryCase{false, false, 32, 0xb1e7da7b7a6d823eull},
                      KaryCase{true, true, 33, 0x8a4004c52b414e57ull},
                      KaryCase{true, false, 34, 0x12bc4c8bec760b32ull}));

}  // namespace
}  // namespace reconfnet
