// perfbench / perfbench_traced: runs one workload for a time budget and
// prints one JSON report line (README.md). Built twice from this file: the
// untraced binary measures the end-to-end metrics; the traced binary
// (PERFBENCH_TRACED) wraps the layers in decorators, records spans, counts
// allocations, and reports the per-layer metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> [--digest-only]
//             [--spans <path>]
//
// Trials run until the budget is spent, but never fewer than the
// kDigestTrials whose outputs form the digest, so runs of different lengths
// (and traced vs untraced runs) of one seed must agree on it. --digest-only
// stops after those trials. Exit status: 0 on success, 1 when an output check
// failed, 2 on a usage error or an unoptimised build.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "report.hpp"
#include "support/alloc_counter.hpp"
#include "support/args.hpp"
#include "support/stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_TRACED
#define PERFBENCH_TRACED 0
#endif

namespace {

using namespace reconfnet;
using namespace reconfnet::perfbench;

/// Trials hashed into the output digest, and the fewest a run makes: enough
/// for two independent systems per workload within the default budget.
constexpr std::size_t kDigestTrials = 2;

std::string hex(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

int run(const support::Args& args) {
  const std::string name = args.get_string("workload", "");
  const auto workload = parse_workload(name);
  if (!workload) {
    std::cerr << "perfbench: unknown --workload '" << name << "'\n";
    return 2;
  }
  if (!built_optimised()) {
    std::cerr << "perfbench: refusing to report numbers from an unoptimised "
                 "build (compile with optimisation, e.g. -O2)\n";
    return 2;
  }
  const bool traced = PERFBENCH_TRACED != 0;
#if PERFBENCH_TRACED
  if (!support::alloc_counting_available()) {
    std::cerr << "perfbench: traced build lacks the counting allocator\n";
    return 2;
  }
#endif
  const std::uint64_t seed = args.get_u64("seed", 1);
  const double budget_s = args.get_double("seconds", 10.0);
  const std::size_t max_trials =
      args.has("digest-only") ? kDigestTrials : std::size_t{1000};
  const Params params;

  Tracer tracer;
  std::vector<TrialResult> trials;
  std::vector<double> trial_wall_s;
  double rss_mb = 0.0;
  const std::int64_t start = now_ns();
  while (trials.size() < max_trials) {
    if (trials.size() >= kDigestTrials) {
      const double elapsed = seconds_between(start, now_ns());
      const double next = support::summarize(trial_wall_s).p50;
      if (elapsed + next > budget_s) break;
    }
    const std::int64_t trial_start = now_ns();
    trials.push_back(run_trial(*workload, params,
                               trial_seed(seed, trials.size()),
                               traced ? &tracer : nullptr));
    trial_wall_s.push_back(seconds_between(trial_start, now_ns()));
    // Peak memory of the fixed work: how many more trials the budget allows
    // (and the allocator history they leave) must not move it.
    if (trials.size() == kDigestTrials) rss_mb = peak_rss_mb();
  }

  Digest digest;
  std::string violation;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  runtime::Json trial_run_s = runtime::Json::array();
  runtime::Json trial_epoch_s = runtime::Json::array();
  for (std::size_t i = 0; i < trials.size(); ++i) {
    if (i < kDigestTrials) digest.add(trials[i].digest);
    if (violation.empty() && !trials[i].violation.empty()) {
      violation = "trial " + std::to_string(i) + ": " + trials[i].violation;
    }
    attempted += trials[i].attempted();
    failed += trials[i].failed();
    trial_run_s.push_back(trials[i].run_s);
    runtime::Json epochs = runtime::Json::array();
    for (const double epoch : trials[i].epoch_s) epochs.push_back(epoch);
    trial_epoch_s.push_back(epochs);
  }

  runtime::Json report = runtime::Json::object();
  report["workload"] = name;
  report["traced"] = traced;
  report["build"] = build_info(seed);
  report["trials"] = static_cast<std::uint64_t>(trials.size());
  report["digest"] = hex(digest.value());
  report["correct"] = violation.empty();
  report["violation"] = violation;
  report["attempted"] = attempted;
  report["failed"] = failed;
  report["trial_run_s"] = trial_run_s;
  report["trial_epoch_s"] = trial_epoch_s;
  report["end_to_end"] = end_to_end_metrics(trials, rss_mb);
  if (traced) {
    report["per_layer"] = layer_metrics(trials, tracer.spans());
    const std::string spans_path = args.get_string("spans", "");
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      write_spans(out, tracer.spans());
      if (!out) {
        std::cerr << "perfbench: cannot write spans to " << spans_path << "\n";
        return 2;
      }
      report["spans_file"] = spans_path;
    }
  }
  std::cout << report.dump(-1) << "\n";
  return violation.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const support::Args args(argc, argv, 1, {"digest-only"});
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
}
