// Turns a run's trials into the benchmark's report: build facts, end-to-end
// metrics (untraced run) and per-layer metrics (traced run), as one
// runtime::Json object. README.md lists every metric with its unit.
#pragma once

#include <cstdint>
#include <span>

#include "runtime/json.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace reconfnet::perfbench {

/// True when this translation unit was compiled with optimisation on.
[[nodiscard]] constexpr bool built_optimised() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

/// Build type, compiler, __OPTIMIZE__, git describe, nproc and seed.
[[nodiscard]] runtime::Json build_info(std::uint64_t seed);

/// ru_maxrss of this process in MB.
[[nodiscard]] double peak_rss_mb();

/// One metric entry: {"value", "unit"} plus "samples" when the value is a
/// median or percentile over that many observations.
[[nodiscard]] runtime::Json metric(double value, const char* unit);
[[nodiscard]] runtime::Json metric(double value, const char* unit,
                                   std::uint64_t samples);

/// Median of a series as a metric with its sample count.
[[nodiscard]] runtime::Json median_metric(std::span<const double> values,
                                          const char* unit);

/// End-to-end metrics of an untraced run over all of its trials;
/// `peak_rss` is ru_maxrss in MB after the digest trials.
[[nodiscard]] runtime::Json end_to_end_metrics(
    std::span<const TrialResult> trials, double peak_rss);

/// Per-layer metrics of a traced run: spans of all of its trials plus the
/// trials' exact counters.
[[nodiscard]] runtime::Json layer_metrics(std::span<const TrialResult> trials,
                                          std::span<const Span> spans);

}  // namespace reconfnet::perfbench
