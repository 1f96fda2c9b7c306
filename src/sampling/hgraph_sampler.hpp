// Algorithm 1 of the paper: rapid node sampling in H-graphs. Random walks of
// length Theta(log n) are assembled by pointer doubling: after iteration i,
// each node's multiset M holds endpoints of independent random walks of
// length 2^i (Lemma 5). With the schedule of Lemma 7, the algorithm succeeds
// w.h.p. and delivers >= beta log n almost-uniform samples per node in
// O(log log n) communication rounds (Theorem 2).
//
// The implementation runs at message level on sim::Bus. Each loop iteration
// costs two bus rounds (requests travel in one round, responses in the next;
// the paper's Phase 4 of iteration i and Phase 2 of iteration i+1 share a
// round). Walk lengths are carried as simulation-only metadata so tests can
// check the Lemma 5 invariant directly; they are not charged as message bits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/hgraph.hpp"
#include "sampling/schedule.hpp"
#include "sim/types.hpp"
#include "support/rng.hpp"

namespace reconfnet::sim {
class DeliveryHook;
}  // namespace reconfnet::sim

namespace reconfnet::sampling {

/// An element of the multiset M: the endpoint of a random walk starting at
/// the owning node, together with the walk's length (validation metadata).
/// Both fields are 32-bit: M holds m_0 entries per node and is the sampler's
/// largest state, so the entry stays at 8 bytes (DESIGN.md §11).
struct WalkEntry {
  std::uint32_t vertex = 0;
  std::uint32_t length = 0;
};
static_assert(sizeof(WalkEntry) == 8, "WalkEntry is the sampler's hot state");

/// Per-node state machine for Algorithm 1 over dense vertex indices.
/// A driver wires cores together: standalone over sim::Bus (below) or inside
/// the reconfiguration protocols. Vertex indices and walk lengths must fit in
/// 32 bits; the constructor and init() throw std::invalid_argument otherwise.
class HGraphSamplerCore {
 public:
  struct Request {
    std::uint32_t requester = 0;
    std::uint32_t requester_walk_length = 0;
  };
  struct Response {
    std::uint32_t vertex = 0;
    std::uint32_t length = 0;
    bool ok = false;
  };

  HGraphSamplerCore(std::size_t self, Schedule schedule, support::Rng rng);

  /// Phase 1: fills M with m_0 uniformly random neighbors, i.e. endpoints of
  /// walks of length 1.
  void init(const graph::HGraph& graph);

  /// Phase 2 of iteration i (1-based): extracts m_i entries from M; each
  /// yields a request addressed to the extracted walk endpoint, handed to
  /// `sink(dest, request)` as it is drawn. A dry M ends the emission early.
  template <typename Sink>
  void emit_requests(int iteration, Sink&& sink) {
    const std::size_t count = schedule_.m[static_cast<std::size_t>(iteration)];
    for (std::size_t j = 0; j < count; ++j) {
      WalkEntry entry;
      if (!extract(entry)) break;
      sink(entry.vertex, Request{self_, entry.length});
    }
  }

  /// Phase 3: serves one incoming request by extracting an entry from M and
  /// splicing the walks. A dry M yields ok = false.
  [[nodiscard]] Response serve(const Request& request);

  /// End of Phase 3: un-served leftovers of M are discarded (Algorithm 1
  /// line 14 replaces M by the received responses).
  void discard_leftovers();

  /// Phase 4: accepts one response into M (failed responses are counted but
  /// not stored). The multiset is semantically unordered; the entry lands at
  /// a uniformly random position so that consumers of a *prefix* of the
  /// samples do not inherit the (value-correlated) delivery order.
  void accept(const Response& response);

  /// Shuffles the multiset in place; the standalone driver calls this after
  /// each collection phase (Algorithm 1's M is an unordered multiset, and
  /// responses arrive ordered by responder, whose position correlates with
  /// the walk endpoints).
  void shuffle_multiset();

  [[nodiscard]] const std::vector<WalkEntry>& multiset() const { return m_; }
  [[nodiscard]] std::size_t dry_events() const { return dry_events_; }
  [[nodiscard]] std::size_t failed_responses() const {
    return failed_responses_;
  }
  [[nodiscard]] std::uint32_t self() const { return self_; }
  [[nodiscard]] const Schedule& schedule() const { return schedule_; }

 private:
  std::uint32_t self_;
  Schedule schedule_;
  support::Rng rng_;
  std::vector<WalkEntry> m_;
  std::size_t dry_events_ = 0;
  std::size_t failed_responses_ = 0;

  /// Removes a uniformly random entry into `out`; false (and a dry event)
  /// if M is empty.
  [[nodiscard]] bool extract(WalkEntry& out) {
    if (m_.empty()) {
      ++dry_events_;
      return false;
    }
    const auto index = static_cast<std::size_t>(rng_.below(m_.size()));
    out = m_[index];
    m_[index] = m_.back();
    m_.pop_back();
    return true;
  }
};

/// Result of a full standalone execution over all nodes of an H-graph.
struct HGraphSamplingResult {
  bool success = false;          ///< no extraction ever hit an empty multiset
  std::size_t dry_events = 0;    ///< total dry extractions across all nodes
  sim::Round rounds = 0;         ///< communication rounds consumed
  std::uint64_t max_node_bits_per_round = 0;
  /// samples[v] = vertices sampled by node v (size m_T on success).
  std::vector<std::vector<std::size_t>> samples;
  /// walk_lengths[v][k] = length of the walk that produced samples[v][k].
  std::vector<std::vector<std::size_t>> walk_lengths;
};

/// Runs Algorithm 1 on every node of `graph` simultaneously and returns all
/// samples. Drives the cores over a sim::Bus with full communication-work
/// accounting. An optional fault hook makes delivery lossy; lost or delayed
/// traffic surfaces as dry multisets (success = false), never wrong samples.
/// Throws std::invalid_argument if the graph has more than 2^32 - 1 vertices
/// or the schedule's walks (length up to 2^T) would not fit in 32 bits.
HGraphSamplingResult run_hgraph_sampling(const graph::HGraph& graph,
                                         const Schedule& schedule,
                                         support::Rng& rng,
                                         sim::DeliveryHook* fault_hook =
                                             nullptr);

}  // namespace reconfnet::sampling
