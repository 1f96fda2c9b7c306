#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <memory>

#include "churn/overlay.hpp"
#include "churn/reconfigure.hpp"
#include "combined/overlay.hpp"
#include "dos/group_table.hpp"
#include "dos/node_sim.hpp"
#include "sampling/hgraph_sampler.hpp"
#include "sampling/schedule.hpp"
#include "support/alloc_counter.hpp"
#include "support/rng.hpp"
#include "workload/adapters.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace reconfnet::perfbench {

namespace {

#if PERFBENCH_TRACED
using AllocScope = support::AllocCounter;
#else
/// The untraced binary keeps the toolchain allocator and counts nothing.
struct AllocScope {
  [[nodiscard]] support::AllocTotals delta() const { return {}; }
};
#endif

constexpr const char* kWorkloadNames[] = {"churn", "combined-isolation",
                                          "dht-zipf", "nodelevel"};

/// Builds the system under test kSetupReps times, timing each build, and
/// returns the last one (set-up time is reported as a median). Each build
/// starts from the same inputs, so every repetition yields the same system.
constexpr int kSetupReps = 5;

template <typename Make>
auto timed_setup(TrialResult& result, Tracer* tracer, const Make& make) {
  decltype(make()) built;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    built = {};  // release the previous build before timing the next
    const std::int64_t start = now_ns();
    {
      const Tracer::Scope span(tracer, "setup");
      built = make();
    }
    result.setup_s.push_back(seconds_between(start, now_ns()));
  }
  return built;
}

void fail(TrialResult& result, std::string what) {
  if (result.violation.empty()) result.violation = std::move(what);
}

// --- churn -----------------------------------------------------------------

/// Probe calls on the topology the churn epoch just produced: one
/// reconfiguration with no joins or leaves, and one standalone run of
/// Algorithm 1. Their rng streams are separate from the overlay's, so the
/// probes cannot change the workload's outputs.
void probe_churn_topology(const churn::ChurnOverlay& overlay,
                          const churn::ChurnOverlay::Config& config,
                          std::uint64_t seed, int epoch, Tracer& tracer,
                          LayerCounts& counts) {
  const auto& topology = overlay.topology();
  const std::size_t n = topology.size();
  const auto estimate =
      sampling::SizeEstimate::from_true_size(std::max<std::size_t>(n, 4));
  support::Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  {
    churn::ReconfigInput input;
    input.topology = &topology;
    input.members = overlay.members();
    input.leaving.assign(n, false);
    input.joiners.resize(n);
    input.sampling = config.sampling;
    input.estimate = estimate;
    input.active_search_steps = config.active_search_steps;
    auto probe_rng = rng.split(2 * static_cast<std::uint64_t>(epoch));
    const Tracer::Scope span(&tracer, "probe.reconfigure");
    (void)churn::reconfigure(input, probe_rng);
  }
  const auto schedule =
      sampling::hgraph_schedule(estimate, topology.degree(), config.sampling);
  auto probe_rng = rng.split(2 * static_cast<std::uint64_t>(epoch) + 1);
  const Tracer::Scope span(&tracer, "probe.hgraph_sampling");
  const AllocScope allocs;
  const auto sampled = sampling::run_hgraph_sampling(topology, schedule,
                                                     probe_rng);
  const auto traffic = allocs.delta();
  counts.hgraph_allocs += traffic.allocations;
  counts.hgraph_alloc_bytes += traffic.bytes;
  counts.hgraph_rounds += static_cast<std::uint64_t>(sampled.rounds);
  counts.hgraph_dry_events += sampled.dry_events;
}

TrialResult churn_trial(const Params& params, std::uint64_t seed,
                        Tracer* tracer) {
  TrialResult result;
  Digest digest;
  CountingHook hook;
  const Tracer::Scope root(tracer, "workload.churn");

  churn::ChurnOverlay::Config config;
  config.initial_size = params.churn_n;
  config.degree = params.churn_degree;
  config.sampling.c = 2.0;
  config.seed = seed;
  if (tracer != nullptr) config.fault_hook = &hook;
  const auto overlay = timed_setup(result, tracer, [&] {
    return std::make_unique<churn::ChurnOverlay>(config);
  });
  support::Rng rng(seed);
  adversary::UniformChurn churn(0.02, 1.0, 2.0, rng.split(1));
  std::optional<TracedChurn> traced_churn;
  if (tracer != nullptr) traced_churn.emplace(churn, *tracer);
  adversary::ChurnAdversary& adversary =
      traced_churn ? static_cast<adversary::ChurnAdversary&>(*traced_churn)
                   : churn;

  const std::int64_t run_start = now_ns();
  std::int64_t probe_ns = 0;
  for (int epoch = 0; epoch < params.churn_epochs; ++epoch) {
    const std::int64_t epoch_start = now_ns();
    churn::ChurnOverlay::EpochReport report;
    {
      const Tracer::Scope span(tracer, "churn.run_epoch");
      report = overlay->run_epoch(adversary);
    }
    result.epoch_s.push_back(seconds_between(epoch_start, now_ns()));
    ++result.epochs;
    // A failed epoch keeps the old topology (a failed operation, counted);
    // a successful one must leave a connected H-graph (an output check).
    if (!report.success) ++result.epochs_failed;
    if (report.success && !report.connected) {
      fail(result, "churn epoch " + std::to_string(epoch) +
                       " succeeded with a disconnected topology");
    }
    if (report.members_after != report.members_before + report.joins_applied -
                                    report.leaves_applied) {
      fail(result, "churn epoch " + std::to_string(epoch) +
                       ": membership does not add up");
    }
    result.sim_rounds += static_cast<std::uint64_t>(report.rounds);
    result.node_bits_max =
        std::max(result.node_bits_max, report.max_node_bits_per_round);
    digest.add(report.success);
    digest.add(static_cast<std::uint64_t>(report.rounds));
    digest.add(report.max_node_bits_per_round);
    digest.add(report.members_before);
    digest.add(report.members_after);
    digest.add(report.joins_applied);
    digest.add(report.leaves_applied);
    digest.add(report.connected);
    for (const auto& cycle : report.cycle_stats) {
      digest.add(cycle.active_nodes);
      digest.add(cycle.max_times_chosen);
      digest.add(cycle.max_empty_segment);
    }
    if (tracer != nullptr) {
      const std::int64_t probe_start = now_ns();
      probe_churn_topology(*overlay, config, seed, epoch, *tracer,
                           result.counts);
      probe_ns += now_ns() - probe_start;
    }
  }
  result.run_s = seconds_between(run_start + probe_ns, now_ns());

  digest.add_ids(overlay->members());
  for (int cycle = 0; cycle < overlay->topology().num_cycles(); ++cycle) {
    digest.add_ids(overlay->cycle_order(cycle));
  }
  result.counts.bus_messages = hook.messages();
  result.counts.bus_steps = hook.steps();
  result.digest = digest.value();
  return result;
}

// --- combined-isolation ----------------------------------------------------

TrialResult combined_trial(const Params& params, std::uint64_t seed,
                           Tracer* tracer) {
  TrialResult result;
  Digest digest;
  const Tracer::Scope root(tracer, "workload.combined-isolation");

  combined::CombinedOverlay::Config config;
  config.initial_size = params.combined_n;
  config.group_c = 2.0;
  config.seed = seed;
  const auto overlay = timed_setup(result, tracer, [&] {
    return std::make_unique<combined::CombinedOverlay>(config);
  });
  support::Rng rng(seed);
  adversary::UniformChurn churn(0.005, 1.0, 4.0, rng.split(1));
  adversary::IsolationDos dos(rng.split(2));
  std::optional<TracedChurn> traced_churn;
  std::optional<TracedDos> traced_dos;
  if (tracer != nullptr) {
    traced_churn.emplace(churn, *tracer);
    traced_dos.emplace(dos, *tracer, result.counts);
  }
  adversary::ChurnAdversary& churn_adversary =
      traced_churn ? static_cast<adversary::ChurnAdversary&>(*traced_churn)
                   : churn;
  combined::CombinedOverlay::Attack attack;
  attack.adversary = traced_dos
                         ? static_cast<adversary::DosAdversary*>(&*traced_dos)
                         : &dos;
  attack.lateness = params.combined_lateness;
  attack.blocked_fraction = 0.25;
  std::size_t members = overlay->size();

  const std::int64_t run_start = now_ns();
  for (int epoch = 0; epoch < params.combined_epochs; ++epoch) {
    const std::int64_t epoch_start = now_ns();
    combined::CombinedOverlay::EpochReport report;
    {
      const Tracer::Scope span(tracer, "combined.run_epoch");
      report = overlay->run_epoch(churn_adversary, attack);
    }
    result.epoch_s.push_back(seconds_between(epoch_start, now_ns()));
    ++result.epochs;
    // Failed reorganizations (e.g. a group silenced by the blocking rule)
    // and disconnected rounds are failed operations; the membership must
    // still add up.
    if (!report.success || report.disconnected_rounds != 0) {
      ++result.epochs_failed;
    }
    if (report.members_after != members + report.joins_applied -
                                    report.leaves_applied ||
        report.members_after != overlay->size()) {
      fail(result, "combined epoch " + std::to_string(epoch) +
                       ": membership does not add up");
    }
    members = report.members_after;
    result.sim_rounds += static_cast<std::uint64_t>(report.rounds);
    result.node_bits_max =
        std::max(result.node_bits_max, report.max_node_bits_per_round);
    result.counts.splits +=
        static_cast<std::uint64_t>(report.split_merge.splits);
    result.counts.merges +=
        static_cast<std::uint64_t>(report.split_merge.merges);
    digest.add(report.success);
    digest.add(report.reorganized);
    digest.add(static_cast<std::uint64_t>(report.rounds));
    digest.add(report.silenced_group_rounds);
    digest.add(report.disconnected_rounds);
    digest.add_double(report.min_available_fraction);
    digest.add(static_cast<std::uint64_t>(report.min_dimension));
    digest.add(static_cast<std::uint64_t>(report.max_dimension));
    digest.add(static_cast<std::uint64_t>(report.split_merge.splits));
    digest.add(static_cast<std::uint64_t>(report.split_merge.merges));
    digest.add(static_cast<std::uint64_t>(report.split_merge.sweeps));
    digest.add(report.joins_applied);
    digest.add(report.leaves_applied);
    digest.add(report.members_after);
    digest.add(report.min_group_size);
    digest.add(report.max_group_size);
    digest.add(report.max_node_bits_per_round);
  }
  result.run_s = seconds_between(run_start, now_ns());

  for (const auto& [key, entry] : overlay->supernodes().groups()) {
    digest.add(key);
    digest.add_ids(entry.second);
  }
  result.digest = digest.value();
  return result;
}

// --- dht-zipf --------------------------------------------------------------

TrialResult dht_trial(const Params& params, std::uint64_t seed,
                      Tracer* tracer) {
  TrialResult result;
  Digest digest;
  const Tracer::Scope root(tracer, "workload.dht-zipf");

  workload::DhtAdapterConfig adapter_config;
  adapter_config.size = params.dht_n;
  adapter_config.prefill_keys = params.dht_n;
  adapter_config.snapshot_edges = false;
  adapter_config.seed = seed;
  const auto adapter = timed_setup(result, tracer, [&] {
    return std::make_unique<workload::DhtAdapter>(adapter_config);
  });
  ClockedApp app(*adapter, tracer, result.counts);

  workload::DriverConfig config;
  config.rounds = params.dht_rounds;
  config.write_fraction = 0.05;
  config.keys.keyspace = params.dht_n;
  config.keys.theta = 0.99;
  config.arrivals.rate = params.dht_rate;
  config.per_group_capacity = 2;
  // Each attempt loses a leg with probability ~0.06 (loss plus delay on two
  // legs); eight attempts make a failed request a ~1e-10 event.
  config.max_attempts = 8;
  config.epoch_every = params.dht_epoch_every;
  config.faults = fault::FaultPlan{}.with_loss(0.01).with_delay(0.02, 2);
  config.mitigation.enabled = true;
  config.mitigation.top_k = 8;
  config.mitigation.replicate_threshold = 32;
  config.mitigation.cache_slots = 4;
  config.mitigation.cache_ttl = 16;
  support::Rng master(seed ^ 0xD1CEB00CULL);

  const std::int64_t run_start = now_ns();
  workload::WorkloadReport report;
  {
    const Tracer::Scope span(tracer, "workload.run_workload");
    report = workload::run_workload(config, app, master);
  }
  result.run_s = seconds_between(run_start, now_ns());
  result.epoch_s = app.epoch_seconds();

  result.epochs = report.epochs_run;
  result.epochs_failed = report.epochs_run - report.epochs_ok;
  result.sim_rounds = report.rounds;
  result.issued = report.issued;
  result.completed = report.completed;
  result.requests_failed = report.failed;
  result.req_p50 = report.p50;
  result.req_p999 = report.p999;
  result.counts.hot_hits =
      report.mitigation.cache_hits + report.mitigation.replica_hits;
  result.counts.retries = report.retries;
  result.counts.max_queue = report.max_queue;
  if (report.issued != report.completed + report.failed + report.in_flight) {
    fail(result, "request conservation violated: issued " +
                     std::to_string(report.issued) + " != completed + failed "
                     "+ in_flight");
  }
  for (const std::uint64_t value :
       {report.issued, report.completed, report.failed, report.in_flight,
        report.retries, report.fault_lost_legs, report.rounds,
        report.epoch_rounds, report.epochs_run, report.epochs_ok,
        report.max_queue, report.p50, report.p99, report.p999,
        report.max_latency, report.mitigation.cache_hits,
        report.mitigation.replica_hits, report.mitigation.replications,
        report.mitigation.replica_messages, report.mitigation.replica_bits,
        report.mitigation.replica_drops}) {
    digest.add(value);
  }
  digest.add_double(report.throughput);
  digest.add_double(report.mean_latency);
  result.digest = digest.value();
  return result;
}

// --- nodelevel -------------------------------------------------------------

TrialResult nodelevel_trial(const Params& params, std::uint64_t seed,
                            Tracer* tracer) {
  TrialResult result;
  Digest digest;
  const Tracer::Scope root(tracer, "workload.nodelevel");

  /// The inputs of the epoch: a random group table and per-round blocked
  /// sets.
  struct Inputs {
    dos::GroupTable groups;
    std::vector<sim::BlockedSet> blocked;
  };
  const auto inputs = timed_setup(result, tracer, [&] {
    support::Rng rng(seed);
    std::vector<sim::NodeId> ids(params.node_n);
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    auto table_rng = rng.split(0);
    auto built = std::make_unique<Inputs>(Inputs{
        dos::GroupTable::random(params.node_dimension, ids, table_rng),
        std::vector<sim::BlockedSet>(params.node_blocked_rounds)});
    auto block_rng = rng.split(1);
    for (auto& set : built->blocked) {
      for (const sim::NodeId node : ids) {
        if (block_rng.bernoulli(0.25)) set.insert(node);
      }
    }
    return built;
  });
  const auto& blocked = inputs->blocked;
  auto run_rng = support::Rng(seed).split(2);

  const std::int64_t run_start = now_ns();
  dos::NodeLevelReport report;
  {
    const Tracer::Scope span(tracer, "dos.run_node_level_epoch");
    const AllocScope allocs;
    report = dos::run_node_level_epoch(inputs->groups, {}, blocked, run_rng);
    const auto traffic = allocs.delta();
    result.counts.nodelevel_allocs = traffic.allocations;
    result.counts.nodelevel_alloc_bytes = traffic.bytes;
  }
  result.run_s = seconds_between(run_start, now_ns());
  result.epoch_s.push_back(result.run_s);

  result.epochs = 1;
  result.sim_rounds = static_cast<std::uint64_t>(report.rounds);
  result.node_bits_max = report.max_node_bits_per_round;
  result.counts.nodelevel_resyncs = report.resyncs;
  // A failed epoch is a failed operation; a successful one must hand every
  // node a consistent view of a complete new group table (Lemma 15).
  if (!report.success) result.epochs_failed = 1;
  if (report.success &&
      (!report.knowledge_consistent || !report.new_groups.has_value() ||
       report.new_groups->size() != params.node_n)) {
    fail(result, "node-level epoch succeeded without consistent new groups");
  }
  if (static_cast<std::size_t>(report.rounds) > blocked.size()) {
    fail(result, "node-level epoch outlasted its blocked-set schedule");
  }
  digest.add(report.success);
  digest.add(static_cast<std::uint64_t>(report.rounds));
  digest.add(report.max_node_bits_per_round);
  digest.add(report.silenced_group_rounds);
  digest.add(report.resyncs);
  digest.add(report.knowledge_consistent);
  if (report.new_groups.has_value()) {
    for (std::uint64_t x = 0; x < report.new_groups->supernodes(); ++x) {
      digest.add_ids(report.new_groups->group(x));
    }
  }
  result.digest = digest.value();
  return result;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (std::size_t i = 0; i < std::size(kWorkloadNames); ++i) {
    if (name == kWorkloadNames[i]) return static_cast<Workload>(i);
  }
  return std::nullopt;
}

Params small_params() {
  Params params;
  params.churn_n = 128;
  params.churn_epochs = 3;
  params.combined_n = 256;
  params.combined_epochs = 4;
  params.combined_lateness = 20;
  params.dht_n = 1024;
  params.dht_rounds = 256;
  params.dht_epoch_every = 64;
  params.dht_rate = 32.0;
  params.node_n = 128;
  params.node_dimension = 3;
  return params;
}

std::uint64_t trial_seed(std::uint64_t seed, std::size_t index) {
  return support::Rng(seed).split(index).next();
}

void Digest::add_double(double value) {
  add(std::bit_cast<std::uint64_t>(value));
}

TrialResult run_trial(Workload workload, const Params& params,
                      std::uint64_t seed, Tracer* tracer) {
  switch (workload) {
    case Workload::kChurn:
      return churn_trial(params, seed, tracer);
    case Workload::kCombinedIsolation:
      return combined_trial(params, seed, tracer);
    case Workload::kDhtZipf:
      return dht_trial(params, seed, tracer);
    case Workload::kNodeLevel:
      return nodelevel_trial(params, seed, tracer);
  }
  return {};
}

// --- decorators ------------------------------------------------------------

sim::BlockedSet TracedDos::choose(const sim::StaleSnapshotView& stale,
                                  std::span<const sim::NodeId> universe,
                                  std::size_t budget, sim::Round now) {
  const Tracer::Scope span(&tracer_, "adversary.choose");
  const AllocScope allocs;
  sim::BlockedSet blocked = inner_.choose(stale, universe, budget, now);
  counts_.dos_choose_allocs += allocs.delta().allocations;
  counts_.dos_blocked_nodes += blocked.size();
  return blocked;
}

adversary::ChurnBatch TracedChurn::next(const adversary::ChurnView& view,
                                        sim::IdAllocator& ids) {
  const Tracer::Scope span(&tracer_, "adversary.next");
  return inner_.next(view, ids);
}

workload::ServeOutcome ClockedApp::serve(
    const workload::Op& op, std::uint64_t entry_group,
    std::span<const sim::BlockedSet> blocked, support::Rng& rng) {
  if (tracer_ == nullptr) return inner_.serve(op, entry_group, blocked, rng);
  const Tracer::Scope span(tracer_, "apps.serve");
  const AllocScope allocs;
  const auto outcome = inner_.serve(op, entry_group, blocked, rng);
  counts_.dht_serve_allocs += allocs.delta().allocations;
  return outcome;
}

workload::EpochOutcome ClockedApp::run_epoch(support::Rng& rng) {
  const std::int64_t start = now_ns();
  workload::EpochOutcome outcome;
  {
    const Tracer::Scope span(tracer_, "apps.run_epoch");
    outcome = inner_.run_epoch(rng);
  }
  epoch_s_.push_back(seconds_between(start, now_ns()));
  return outcome;
}

}  // namespace reconfnet::perfbench
