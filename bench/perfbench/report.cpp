#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <thread>

#include "runtime/results.hpp"
#include "support/stats.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace reconfnet::perfbench {

namespace {

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : static_cast<double>(part) / static_cast<double>(whole);
}

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double count(std::uint64_t value) { return static_cast<double>(value); }

/// Quantiles of the durations of every span with the given name.
DurationHistogram histogram_of(std::span<const Span> spans, const char* name,
                               std::int64_t resolution_ns,
                               std::uint64_t buckets) {
  DurationHistogram hist(resolution_ns, buckets);
  const std::string_view wanted = name;
  for (const Span& span : spans) {
    if (span.name == wanted) hist.add(span.duration_ns());
  }
  return hist;
}

}  // namespace

runtime::Json build_info(std::uint64_t seed) {
  runtime::Json info = runtime::Json::object();
  info["build_type"] = PERFBENCH_BUILD_TYPE;
  info["compiler"] = PERFBENCH_COMPILER;
  info["optimize"] = built_optimised();
  info["git"] = runtime::build_git_describe();
  info["nproc"] = static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  info["seed"] = seed;
  return info;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

runtime::Json metric(double value, const char* unit) {
  runtime::Json entry = runtime::Json::object();
  entry["value"] = value;
  entry["unit"] = unit;
  return entry;
}

runtime::Json metric(double value, const char* unit, std::uint64_t samples) {
  runtime::Json entry = metric(value, unit);
  entry["samples"] = samples;
  return entry;
}

runtime::Json median_metric(std::span<const double> values, const char* unit) {
  return metric(support::summarize(values).p50, unit, values.size());
}

runtime::Json end_to_end_metrics(std::span<const TrialResult> trials,
                                 double peak_rss) {
  std::vector<double> setup;
  std::vector<double> run;
  std::vector<double> epochs;
  std::vector<double> rounds;
  std::vector<double> req_p50;
  std::vector<double> req_p999;
  std::uint64_t node_bits_max = 0;
  std::uint64_t epochs_total = 0;
  std::uint64_t epochs_failed = 0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t requests_failed = 0;
  double run_total = 0.0;
  for (const TrialResult& trial : trials) {
    setup.insert(setup.end(), trial.setup_s.begin(), trial.setup_s.end());
    run.push_back(trial.run_s);
    epochs.insert(epochs.end(), trial.epoch_s.begin(), trial.epoch_s.end());
    rounds.push_back(count(trial.sim_rounds));
    node_bits_max = std::max(node_bits_max, trial.node_bits_max);
    epochs_total += trial.epochs;
    epochs_failed += trial.epochs_failed;
    run_total += trial.run_s;
    if (trial.issued > 0) {
      issued += trial.issued;
      completed += trial.completed;
      requests_failed += trial.requests_failed;
      req_p50.push_back(count(trial.req_p50));
      req_p999.push_back(count(trial.req_p999));
    }
  }
  runtime::Json metrics = runtime::Json::object();
  metrics["setup_s"] = median_metric(setup, "s");
  metrics["run_s"] = median_metric(run, "s");
  metrics["epoch_s_p50"] = median_metric(epochs, "s");
  metrics["peak_rss_mb"] = metric(peak_rss, "MB");
  metrics["sim_rounds"] = median_metric(rounds, "rounds");
  metrics["node_kbits_max"] =
      metric(count(node_bits_max) / 1000.0, "kbit");
  metrics["epochs_failed_frac"] =
      metric(ratio(epochs_failed, epochs_total), "ratio", epochs_total);
  metrics["requests_per_s"] = metric(
      run_total > 0.0 ? count(completed) / run_total : 0.0, "req/s");
  metrics["req_p50_rounds"] = median_metric(req_p50, "rounds");
  metrics["req_p999_rounds"] = median_metric(req_p999, "rounds");
  metrics["requests_failed_frac"] =
      metric(ratio(requests_failed, issued), "ratio", issued);
  return metrics;
}

runtime::Json layer_metrics(std::span<const TrialResult> trials,
                            std::span<const Span> spans) {
  LayerCounts sum;
  for (const TrialResult& trial : trials) {
    const LayerCounts& c = trial.counts;
    sum.dos_choose_allocs += c.dos_choose_allocs;
    sum.dos_blocked_nodes += c.dos_blocked_nodes;
    sum.splits += c.splits;
    sum.merges += c.merges;
    sum.hgraph_allocs += c.hgraph_allocs;
    sum.hgraph_alloc_bytes += c.hgraph_alloc_bytes;
    sum.hgraph_rounds += c.hgraph_rounds;
    sum.hgraph_dry_events += c.hgraph_dry_events;
    sum.bus_messages += c.bus_messages;
    sum.bus_steps += c.bus_steps;
    sum.dht_serve_allocs += c.dht_serve_allocs;
    sum.hot_hits += c.hot_hits;
    sum.retries += c.retries;
    sum.max_queue = std::max(sum.max_queue, c.max_queue);
    sum.nodelevel_allocs += c.nodelevel_allocs;
    sum.nodelevel_alloc_bytes += c.nodelevel_alloc_bytes;
    sum.nodelevel_resyncs += c.nodelevel_resyncs;
  }
  const auto self = self_times_ns(spans);
  const auto totals = [&](const char* name) {
    return totals_for(spans, self, name);
  };
  const NameTotals choose = totals("adversary.choose");
  const NameTotals next = totals("adversary.next");
  const NameTotals combined_epoch = totals("combined.run_epoch");
  const NameTotals churn_epoch = totals("churn.run_epoch");
  const NameTotals reconfigure = totals("probe.reconfigure");
  const NameTotals hgraph = totals("probe.hgraph_sampling");
  const NameTotals serve = totals("apps.serve");
  const NameTotals app_epoch = totals("apps.run_epoch");
  const NameTotals driver = totals("workload.run_workload");
  const NameTotals nodelevel = totals("dos.run_node_level_epoch");
  // 10 us buckets up to 10 s for choose(); 10 ns buckets up to 1 ms for
  // serve().
  const auto choose_hist =
      histogram_of(spans, "adversary.choose", 10'000, 1'000'000);
  const auto serve_hist = histogram_of(spans, "apps.serve", 10, 100'000);

  runtime::Json m = runtime::Json::object();
  m["adversary.dos_choose_s"] = metric(seconds(choose.total_ns), "s");
  m["adversary.dos_choose_ms_p50"] =
      metric(choose_hist.quantile_ns(0.5) * 1e-6, "ms", choose_hist.count());
  m["adversary.dos_choose_calls"] = metric(count(choose.count), "count");
  m["adversary.dos_choose_allocs"] =
      metric(count(sum.dos_choose_allocs), "count");
  m["adversary.dos_blocked_nodes"] =
      metric(count(sum.dos_blocked_nodes), "count");
  m["adversary.churn_next_s"] = metric(seconds(next.total_ns), "s");
  m["combined.epoch_self_s"] = metric(seconds(combined_epoch.self_ns), "s");
  m["combined.splits"] = metric(count(sum.splits), "count");
  m["combined.merges"] = metric(count(sum.merges), "count");
  m["churn.epoch_self_s"] = metric(seconds(churn_epoch.self_ns), "s");
  m["churn.reconfigure_s"] = metric(seconds(reconfigure.total_ns), "s");
  m["sampling.hgraph_s"] = metric(seconds(hgraph.total_ns), "s");
  m["sampling.hgraph_allocs"] = metric(count(sum.hgraph_allocs), "count");
  m["sampling.hgraph_alloc_bytes"] =
      metric(count(sum.hgraph_alloc_bytes), "bytes");
  m["sampling.hgraph_rounds"] = metric(count(sum.hgraph_rounds), "rounds");
  m["sampling.hgraph_dry_events"] =
      metric(count(sum.hgraph_dry_events), "count");
  m["sim.bus_messages"] = metric(count(sum.bus_messages), "count");
  m["sim.bus_steps"] = metric(count(sum.bus_steps), "count");
  m["sim.ns_per_message"] = metric(
      sum.bus_messages == 0
          ? 0.0
          : static_cast<double>(churn_epoch.self_ns) / count(sum.bus_messages),
      "ns");
  m["apps.dht_serve_s"] = metric(seconds(serve.total_ns), "s");
  m["apps.dht_serve_us_p50"] =
      metric(serve_hist.quantile_ns(0.5) * 1e-3, "us", serve_hist.count());
  m["apps.dht_serve_us_p99"] =
      metric(serve_hist.quantile_ns(0.99) * 1e-3, "us", serve_hist.count());
  m["apps.dht_serve_calls"] = metric(count(serve.count), "count");
  m["apps.dht_serve_allocs"] = metric(count(sum.dht_serve_allocs), "count");
  m["apps.dht_epoch_s"] = metric(seconds(app_epoch.total_ns), "s");
  m["apps.dht_epoch_calls"] = metric(count(app_epoch.count), "count");
  m["workload.driver_self_s"] = metric(seconds(driver.self_ns), "s");
  m["workload.hot_hits"] = metric(count(sum.hot_hits), "count");
  m["workload.retries"] = metric(count(sum.retries), "count");
  m["workload.max_queue"] = metric(count(sum.max_queue), "count");
  m["dos.nodelevel_epoch_s"] = metric(seconds(nodelevel.total_ns), "s");
  m["dos.nodelevel_allocs"] = metric(count(sum.nodelevel_allocs), "count");
  m["dos.nodelevel_alloc_bytes"] =
      metric(count(sum.nodelevel_alloc_bytes), "bytes");
  m["dos.nodelevel_resyncs"] = metric(count(sum.nodelevel_resyncs), "count");
  return m;
}

}  // namespace reconfnet::perfbench
