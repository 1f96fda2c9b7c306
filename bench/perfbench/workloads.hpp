// The benchmark's four workloads (README.md, "Workloads") and the forwarding
// decorators the traced run wraps around reconfnet's public seams.
//
// A workload run is a sequence of trials. Trial i builds its inputs from
// trial_seed(seed, i), sets the system up, runs a fixed amount of simulated
// work, checks the simulated outputs, and folds them into a 64-bit digest.
// With a tracer attached the same trial runs behind the decorators and
// records spans; the digest must not change.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/churn.hpp"
#include "adversary/dos.hpp"
#include "sim/bus.hpp"
#include "trace.hpp"
#include "workload/driver.hpp"

namespace reconfnet::perfbench {

enum class Workload { kChurn, kCombinedIsolation, kDhtZipf, kNodeLevel };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// System sizes and the fixed simulated work of one trial.
struct Params {
  std::size_t churn_n = 1024;
  int churn_degree = 8;
  int churn_epochs = 4;

  std::size_t combined_n = 2048;
  int combined_epochs = 6;
  int combined_lateness = 60;

  std::size_t dht_n = 100000;
  std::size_t dht_rounds = 4096;
  std::size_t dht_epoch_every = 1024;
  double dht_rate = 256.0;

  std::size_t node_n = 512;
  int node_dimension = 4;
  std::size_t node_blocked_rounds = 64;
};

/// Sizes small enough for the self-tests (each trial well under a second).
[[nodiscard]] Params small_params();

/// Seed of trial `index` of a run started with `seed`.
[[nodiscard]] std::uint64_t trial_seed(std::uint64_t seed, std::size_t index);

/// 64-bit FNV-1a over a stream of integers: the fingerprint of a trial's
/// simulated outputs.
class Digest {
 public:
  void add(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      state_ ^= (value >> (8 * byte)) & 0xFFu;
      state_ *= 0x100000001B3ULL;
    }
  }
  void add_double(double value);
  void add_ids(std::span<const sim::NodeId> ids) {
    add(ids.size());
    for (const sim::NodeId id : ids) add(id);
  }
  [[nodiscard]] std::uint64_t value() const { return state_; }

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

/// Exact counters the decorators and probes gather (traced run), plus
/// simulated counts every run reads off the reports.
struct LayerCounts {
  std::uint64_t dos_choose_allocs = 0;
  std::uint64_t dos_blocked_nodes = 0;
  std::uint64_t splits = 0;
  std::uint64_t merges = 0;
  std::uint64_t hgraph_allocs = 0;
  std::uint64_t hgraph_alloc_bytes = 0;
  std::uint64_t hgraph_rounds = 0;
  std::uint64_t hgraph_dry_events = 0;
  std::uint64_t bus_messages = 0;
  std::uint64_t bus_steps = 0;
  std::uint64_t dht_serve_allocs = 0;
  std::uint64_t hot_hits = 0;
  std::uint64_t retries = 0;
  std::uint64_t max_queue = 0;
  std::uint64_t nodelevel_allocs = 0;
  std::uint64_t nodelevel_alloc_bytes = 0;
  std::uint64_t nodelevel_resyncs = 0;
};

/// Everything one trial measured and produced.
struct TrialResult {
  std::vector<double> setup_s;  ///< one sample per set-up repetition
  double run_s = 0.0;  ///< excludes probe calls (traced run only)
  std::vector<double> epoch_s;
  std::uint64_t sim_rounds = 0;
  std::uint64_t node_bits_max = 0;  ///< max over epochs; 0 for dht-zipf
  std::uint64_t epochs = 0;
  std::uint64_t epochs_failed = 0;
  // dht-zipf request accounting (zero elsewhere).
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t req_p50 = 0;
  std::uint64_t req_p999 = 0;
  LayerCounts counts;
  std::uint64_t digest = 0;
  /// Empty when every output check passed; otherwise the first violation.
  /// Failed epochs and requests are failed operations, not violations.
  std::string violation;

  /// Operations attempted / failed: requests for dht-zipf, epochs elsewhere.
  [[nodiscard]] std::uint64_t attempted() const {
    return issued > 0 ? issued : epochs;
  }
  [[nodiscard]] std::uint64_t failed() const {
    return issued > 0 ? requests_failed : epochs_failed;
  }
};

/// Runs one trial. A null tracer is the untraced run: no decorators, no
/// probes, no hook.
[[nodiscard]] TrialResult run_trial(Workload workload, const Params& params,
                                    std::uint64_t seed, Tracer* tracer);

// --- decorators ------------------------------------------------------------

/// Times DosAdversary::choose and counts its allocations and the size of the
/// returned blocked set. The stale view is forwarded untouched and never
/// read.
class TracedDos final : public adversary::DosAdversary {
 public:
  TracedDos(adversary::DosAdversary& inner, Tracer& tracer, LayerCounts& counts)
      : inner_(inner), tracer_(tracer), counts_(counts) {}
  sim::BlockedSet choose(const sim::StaleSnapshotView& stale,
                         std::span<const sim::NodeId> universe,
                         std::size_t budget, sim::Round now) override;

 private:
  adversary::DosAdversary& inner_;
  Tracer& tracer_;
  LayerCounts& counts_;
};

/// Times ChurnAdversary::next.
class TracedChurn final : public adversary::ChurnAdversary {
 public:
  TracedChurn(adversary::ChurnAdversary& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  adversary::ChurnBatch next(const adversary::ChurnView& view,
                             sim::IdAllocator& ids) override;

 private:
  adversary::ChurnAdversary& inner_;
  Tracer& tracer_;
};

/// Forwards every AppAdapter call. run_epoch is always clocked (it feeds
/// epoch_s_p50); with a tracer, serve and run_epoch also record spans and
/// serve counts its allocations.
class ClockedApp final : public workload::AppAdapter {
 public:
  ClockedApp(workload::AppAdapter& inner, Tracer* tracer, LayerCounts& counts)
      : inner_(inner), tracer_(tracer), counts_(counts) {}

  [[nodiscard]] std::size_t group_count() const override {
    return inner_.group_count();
  }
  [[nodiscard]] std::size_t node_count() const override {
    return inner_.node_count();
  }
  [[nodiscard]] std::size_t pipeline_depth() const override {
    return inner_.pipeline_depth();
  }
  [[nodiscard]] std::uint64_t home_group(
      const workload::Op& op) const override {
    return inner_.home_group(op);
  }
  workload::ServeOutcome serve(const workload::Op& op,
                               std::uint64_t entry_group,
                               std::span<const sim::BlockedSet> blocked,
                               support::Rng& rng) override;
  workload::EpochOutcome run_epoch(support::Rng& rng) override;
  void set_fault_hook(sim::DeliveryHook* hook) override {
    inner_.set_fault_hook(hook);
  }
  bool peek(std::uint64_t key, std::uint64_t& value) override {
    return inner_.peek(key, value);
  }

  [[nodiscard]] const std::vector<double>& epoch_seconds() const {
    return epoch_s_;
  }

 private:
  workload::AppAdapter& inner_;
  Tracer* tracer_;
  LayerCounts& counts_;
  std::vector<double> epoch_s_;
};

/// Pass-through delivery hook: delivers every message on time, keeps arrival
/// order, and counts messages and bus steps.
class CountingHook final : public sim::DeliveryHook {
 public:
  void on_message(sim::NodeId, sim::NodeId, sim::Round,
                  std::vector<sim::Round>& deliveries) override {
    ++messages_;
    deliveries.push_back(0);
  }
  bool reorder(sim::NodeId, sim::Round, std::size_t,
               std::vector<std::size_t>&) override {
    return false;
  }
  void on_step(sim::Round) override { ++steps_; }

  [[nodiscard]] std::uint64_t messages() const { return messages_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }

 private:
  std::uint64_t messages_ = 0;
  std::uint64_t steps_ = 0;
};

}  // namespace reconfnet::perfbench
