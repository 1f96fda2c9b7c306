// Frozen oracle for the node-level Section 5 epoch: digests of the full
// NodeLevelReport (success, failure reason, rounds, max bits, silenced
// group-rounds, resyncs, knowledge and the new group table) pinned from the
// original standalone implementation of run_node_level_epoch, before it was
// rebuilt as a driver over transport::NodeProtocol. Any change to the
// protocol's decisions, its rng streams or its paper cost model moves a
// digest.
//
// Cases: the V1 grid shape (n in {128, 256, 512} x blocked in {0, 0.25}),
// the five BlockPatternSweep patterns of node_sim_test.cpp, and the perfbench
// `nodelevel` inputs at seeds 301-303.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "dos/group_table.hpp"
#include "dos/node_sim.hpp"
#include "support/rng.hpp"

namespace reconfnet::dos {
namespace {

class Fnv {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (value >> (8 * byte)) & 0xFFu;
      state_ *= 0x100000001B3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

std::uint64_t digest(const NodeLevelReport& report) {
  Fnv fnv;
  fnv.add(report.success ? 1 : 0);
  fnv.add(report.failure_reason.size());
  for (const char c : report.failure_reason) {
    fnv.add(static_cast<unsigned char>(c));
  }
  fnv.add(static_cast<std::uint64_t>(report.rounds));
  fnv.add(report.max_node_bits_per_round);
  fnv.add(report.silenced_group_rounds);
  fnv.add(report.resyncs);
  fnv.add(report.knowledge_consistent ? 1 : 0);
  fnv.add(report.new_groups.has_value() ? 1 : 0);
  if (report.new_groups.has_value()) {
    for (std::uint64_t x = 0; x < report.new_groups->supernodes(); ++x) {
      const auto& members = report.new_groups->group(x);
      fnv.add(members.size());
      for (const sim::NodeId id : members) fnv.add(id);
    }
  }
  return fnv.value();
}

std::vector<sim::NodeId> dense_ids(std::size_t n) {
  std::vector<sim::NodeId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = i;
  return ids;
}

// --- V1 grid shape ----------------------------------------------------------

struct GridCase {
  std::size_t n;
  double blocked;
  std::uint64_t expected;
};

// Test names carry the inputs, never the digest.
void PrintTo(const GridCase& c, std::ostream* out) {
  *out << "(" << c.n << ", " << c.blocked << ")";
}

class NodeLevelGoldenGrid : public ::testing::TestWithParam<GridCase> {};

TEST_P(NodeLevelGoldenGrid, MatchesFrozenDigest) {
  const GridCase& c = GetParam();
  const int d = c.n >= 512 ? 4 : 3;
  support::Rng rng(1000 + c.n + static_cast<std::uint64_t>(c.blocked * 100));
  auto table_rng = rng.split(0);
  const auto ids = dense_ids(c.n);
  const auto groups = GroupTable::random(d, ids, table_rng);
  std::vector<sim::BlockedSet> blocked(40);
  for (auto& set : blocked) {
    for (const sim::NodeId id : ids) {
      if (table_rng.bernoulli(c.blocked)) set.insert(id);
    }
  }
  auto run_rng = rng.split(1);
  const auto report = run_node_level_epoch(groups, {}, blocked, run_rng);
  EXPECT_EQ(digest(report), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    V1, NodeLevelGoldenGrid,
    ::testing::Values(GridCase{128, 0.0, 0x713b694ca461f1a7ull},
                      GridCase{128, 0.25, 0x5e7f4c2c9e398bd6ull},
                      GridCase{256, 0.0, 0x33a0065c6dcb279bull},
                      GridCase{256, 0.25, 0xbf1ce609170bf228ull},
                      GridCase{512, 0.0, 0x2e7859bd769cbd0cull},
                      GridCase{512, 0.25, 0x4d983afa9ce23b92ull}));

// --- BlockPatternSweep patterns ---------------------------------------------

struct PatternCase {
  int pattern;
  std::uint64_t expected;
};

void PrintTo(const PatternCase& c, std::ostream* out) { *out << c.pattern; }

class NodeLevelGoldenPattern : public ::testing::TestWithParam<PatternCase> {};

/// The blocked-set schedule of node_sim_test.cpp's BlockPatternSweep, drawn
/// from the same seeds, so the digest pins exactly the runs that suite
/// checks only for detect-or-survive.
TEST_P(NodeLevelGoldenPattern, MatchesFrozenDigest) {
  const int pattern = GetParam().pattern;
  support::Rng table_rng(50 + static_cast<std::uint64_t>(pattern));
  const auto groups = GroupTable::random(3, dense_ids(192), table_rng);
  support::Rng rng(60 + static_cast<std::uint64_t>(pattern));
  std::vector<sim::BlockedSet> blocked(40);
  const auto block_node = [&](std::size_t round, sim::NodeId id) {
    if (round < blocked.size()) blocked[round].insert(id);
  };
  const auto random_rounds = [&](std::size_t first, std::size_t last,
                                 std::size_t stride) {
    for (std::size_t r = first; r < last; r += stride) {
      for (sim::NodeId id = 0; id < 192; ++id) {
        if (rng.bernoulli(0.3)) block_node(r, id);
      }
    }
  };
  switch (pattern) {
    case 0:
      random_rounds(0, blocked.size(), 2);
      break;
    case 1:
      random_rounds(1, blocked.size(), 2);
      break;
    case 2:
      for (std::size_t r = 0; r < blocked.size(); ++r) {
        for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
          const auto& members = groups.group(x);
          block_node(r, members[0]);
          if (members.size() > 1) block_node(r, members[1]);
        }
      }
      break;
    case 3:
      random_rounds(10, 14, 1);
      break;
    default:
      for (std::size_t r = 0; r < blocked.size(); ++r) {
        for (std::uint64_t x = 0; x < groups.supernodes(); ++x) {
          const auto& members = groups.group(x);
          for (std::size_t i = 0; i < members.size(); ++i) {
            if ((i % 2 == 0) == (r % 2 == 0)) block_node(r, members[i]);
          }
        }
      }
      break;
  }
  auto run_rng = rng.split(1);
  const auto report = run_node_level_epoch(groups, {}, blocked, run_rng);
  EXPECT_EQ(digest(report), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    BlockPatterns, NodeLevelGoldenPattern,
    ::testing::Values(PatternCase{0, 0x1bac9d169d105d58ull},
                      PatternCase{1, 0x6b0aa3f220dfcd9aull},
                      PatternCase{2, 0xf81545d595c3ee95ull},
                      PatternCase{3, 0x1aa4b728db51f721ull},
                      PatternCase{4, 0x528fb7eae734dfafull}));

// --- perfbench nodelevel inputs ---------------------------------------------

struct SeedCase {
  std::uint64_t seed;
  std::uint64_t expected;
};

void PrintTo(const SeedCase& c, std::ostream* out) { *out << c.seed; }

class NodeLevelGoldenPerfbench : public ::testing::TestWithParam<SeedCase> {};

/// The inputs bench/perfbench builds for its `nodelevel` workload: n = 512,
/// d = 4, 64 blocked-set rounds at 25 %.
TEST_P(NodeLevelGoldenPerfbench, MatchesFrozenDigest) {
  const std::uint64_t seed = GetParam().seed;
  support::Rng rng(seed);
  const auto ids = dense_ids(512);
  auto table_rng = rng.split(0);
  const auto groups = GroupTable::random(4, ids, table_rng);
  std::vector<sim::BlockedSet> blocked(64);
  auto block_rng = rng.split(1);
  for (auto& set : blocked) {
    for (const sim::NodeId id : ids) {
      if (block_rng.bernoulli(0.25)) set.insert(id);
    }
  }
  auto run_rng = support::Rng(seed).split(2);
  const auto report = run_node_level_epoch(groups, {}, blocked, run_rng);
  EXPECT_EQ(report.rounds, 14);
  EXPECT_EQ(digest(report), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, NodeLevelGoldenPerfbench,
    ::testing::Values(SeedCase{301, 0x243d5021406ecc23ull},
                      SeedCase{302, 0x1d66ce4de7139f1dull},
                      SeedCase{303, 0xde0ecb0de3555dd8ull}));

}  // namespace
}  // namespace reconfnet::dos
