#include "sampling/hgraph_sampler.hpp"

#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "sim/bus.hpp"
#include "sim/metrics.hpp"

namespace reconfnet::sampling {

namespace {

constexpr std::size_t kMaxU32 = std::numeric_limits<std::uint32_t>::max();

/// Rejects schedules whose walks would overflow WalkEntry's 32-bit length.
/// Walks start at length 1 and at most double per iteration, so the longest
/// is 2^T.
void check_walk_lengths_fit(const Schedule& schedule) {
  if (schedule.iterations >= 32) {
    throw std::invalid_argument(
        "hgraph sampler: walk lengths exceed 32 bits");
  }
}

/// Rejects graphs whose vertex indices would not fit in 32 bits.
void check_vertex_count_fits(std::size_t n) {
  if (n > kMaxU32) {
    throw std::invalid_argument(
        "hgraph sampler: vertex count exceeds 32 bits");
  }
}

}  // namespace

HGraphSamplerCore::HGraphSamplerCore(std::size_t self, Schedule schedule,
                                     support::Rng rng)
    : self_(static_cast<std::uint32_t>(self)),
      schedule_(std::move(schedule)),
      rng_(rng) {
  check_vertex_count_fits(self + 1);
  check_walk_lengths_fit(schedule_);
}

void HGraphSamplerCore::init(const graph::HGraph& graph) {
  check_vertex_count_fits(graph.size());
  m_.clear();
  m_.reserve(schedule_.m0());
  for (std::size_t j = 0; j < schedule_.m0(); ++j) {
    const int port = static_cast<int>(
        rng_.below(static_cast<std::uint64_t>(graph.degree())));
    m_.push_back(
        {static_cast<std::uint32_t>(graph.neighbor(self_, port)), 1});
  }
}

HGraphSamplerCore::Response HGraphSamplerCore::serve(const Request& request) {
  WalkEntry entry;
  if (!extract(entry)) return {0, 0, false};
  // Splice: the requester's walk (ending here) continued by our walk. Both
  // halves are at most 2^(i-1) long, so the sum stays within 2^T.
  return {entry.vertex, request.requester_walk_length + entry.length, true};
}

void HGraphSamplerCore::discard_leftovers() { m_.clear(); }

void HGraphSamplerCore::accept(const Response& response) {
  if (!response.ok) {
    ++failed_responses_;
    return;
  }
  m_.push_back({response.vertex, response.length});
}

void HGraphSamplerCore::shuffle_multiset() {
  rng_.shuffle(std::span<WalkEntry>(m_));
}

namespace {

/// Wire format of the standalone driver, one 12-byte record. `kind` plus one
/// id (`id`: the requester for requests, the sampled endpoint for responses)
/// is charged as bits; walk lengths and the ok flag are validation metadata
/// and free.
struct WireMsg {
  std::uint32_t id = 0;
  std::uint32_t length = 0;
  bool is_request = false;
  bool ok = false;
};
static_assert(sizeof(WireMsg) <= 12, "WireMsg is one in-flight sampler hop");

}  // namespace

HGraphSamplingResult run_hgraph_sampling(const graph::HGraph& graph,
                                         const Schedule& schedule,
                                         support::Rng& rng,
                                         sim::DeliveryHook* fault_hook) {
  const std::size_t n = graph.size();
  check_vertex_count_fits(n);
  check_walk_lengths_fit(schedule);
  const std::uint64_t bits_per_msg = 1 + sim::id_bits(n - 1);

  std::vector<HGraphSamplerCore> cores;
  cores.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    cores.emplace_back(v, schedule, rng.split(v));
    cores.back().init(graph);
  }

  sim::WorkMeter meter;
  sim::Bus<WireMsg> bus(&meter);
  bus.set_fault_hook(fault_hook);
  // Iteration 1 sends the most traffic: n * m_1 requests, then at most as
  // many responses; later iterations send fewer (m_i decreases). Fault-hook
  // duplicates may still grow the outbox past this.
  if (schedule.iterations >= 1) bus.reserve(n * schedule.m[1]);

  for (int i = 1; i <= schedule.iterations; ++i) {
    // Phase 2: every node sends its requests.
    for (auto& core : cores) {
      core.emit_requests(i, [&](std::uint32_t dest,
                                const HGraphSamplerCore::Request& request) {
        bus.send(core.self(), dest,
                 WireMsg{request.requester, request.requester_walk_length,
                         true, false},
                 bits_per_msg);
      });
    }
    bus.step();
    // Phase 3: serve all requests that arrived. Under a fault hook a delayed
    // response may land here too; only requests are served.
    for (auto& core : cores) {
      for (const auto& envelope : bus.inbox(core.self())) {
        const WireMsg& msg = envelope.payload;
        if (!msg.is_request) continue;
        const auto response = core.serve({msg.id, msg.length});
        bus.send(core.self(), msg.id,
                 WireMsg{response.vertex, response.length, false, response.ok},
                 bits_per_msg);
      }
      core.discard_leftovers();
    }
    bus.step();
    // Phase 4: collect responses into the new multiset. M is semantically
    // unordered, but bus delivery orders responses by responder index and
    // the endpoints correlate with the responder, so re-randomize the order
    // for downstream prefix consumers (e.g. Algorithm 3's sample pool).
    for (auto& core : cores) {
      for (const auto& envelope : bus.inbox(core.self())) {
        const WireMsg& msg = envelope.payload;
        if (msg.is_request) continue;  // delayed query: dropped
        core.accept({msg.id, msg.length, msg.ok});
      }
      core.shuffle_multiset();
    }
  }

  HGraphSamplingResult result;
  result.rounds = bus.round();
  result.max_node_bits_per_round = meter.max_node_bits_any_round();
  result.samples.resize(n);
  result.walk_lengths.resize(n);
  result.dry_events = 0;
  for (std::size_t v = 0; v < n; ++v) {
    result.dry_events += cores[v].dry_events();
    const auto& multiset = cores[v].multiset();
    auto& samples = result.samples[v];
    auto& lengths = result.walk_lengths[v];
    samples.resize(multiset.size());
    lengths.resize(multiset.size());
    for (std::size_t k = 0; k < multiset.size(); ++k) {
      samples[k] = multiset[k].vertex;
      lengths[k] = multiset[k].length;
    }
  }
  result.success = result.dry_events == 0;
  return result;
}

}  // namespace reconfnet::sampling
