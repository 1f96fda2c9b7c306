// In-memory span tracer for the traced benchmark run (README.md, "Traced
// run"). Spans are recorded from the benchmark's own files, around calls into
// public reconfnet functions; nothing inside the library is instrumented.
//
// A span has an id, the id of the span that was open when it started (its
// parent; kNoSpan for a root), a static name, and start/end times in
// nanoseconds of the monotonic host clock. Self time of a span is its
// duration minus the part of that interval covered by its children.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string_view>
#include <vector>

#include "support/percentiles.hpp"

namespace reconfnet::perfbench {

/// Nanoseconds of the monotonic host clock. The benchmark's only clock read.
std::int64_t now_ns();

/// Seconds between two now_ns() readings.
[[nodiscard]] inline double seconds_between(std::int64_t start,
                                            std::int64_t end) {
  return static_cast<double>(end - start) * 1e-9;
}

inline constexpr std::uint32_t kNoSpan = 0xFFFFFFFFu;

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = kNoSpan;
  const char* name = "";  ///< static string; spans compare names by value
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Records properly nested spans on one thread. Ids are indices into
/// spans(); open() makes the innermost open span the parent.
class Tracer {
 public:
  std::uint32_t open(const char* name);
  void close(std::uint32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// RAII span; a null tracer records nothing.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name)
        : tracer_(tracer),
          id_(tracer == nullptr ? kNoSpan : tracer->open(name)) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close(id_);
    }

   private:
    Tracer* tracer_;
    std::uint32_t id_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Self time of every span (same indexing as `spans`): its duration minus
/// the union of its children's intervals clipped to it. `spans` must be
/// indexed by id (as Tracer records them).
[[nodiscard]] std::vector<std::int64_t> self_times_ns(
    std::span<const Span> spans);

/// Totals over every span with the given name.
struct NameTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};
[[nodiscard]] NameTotals totals_for(std::span<const Span> spans,
                                    std::span<const std::int64_t> self_ns,
                                    std::string_view name);

/// Writes the spans as tab-separated text: a header line, then one line per
/// span (id, parent or -1, name, start_ns, end_ns), start times relative to
/// the first span.
void write_spans(std::ostream& os, std::span<const Span> spans);

/// Duration histogram on support::Percentiles: durations are quantised to
/// `resolution_ns` buckets (larger ones clamp into the overflow bucket).
class DurationHistogram {
 public:
  DurationHistogram(std::int64_t resolution_ns, std::uint64_t buckets);

  void add(std::int64_t duration_ns);

  /// q-quantile in nanoseconds (bucket value times the resolution).
  [[nodiscard]] double quantile_ns(double q) const;
  [[nodiscard]] std::uint64_t count() const { return hist_.count(); }
  [[nodiscard]] std::uint64_t overflow() const { return hist_.overflow(); }

 private:
  std::int64_t resolution_ns_;
  support::Percentiles hist_;
};

}  // namespace reconfnet::perfbench
