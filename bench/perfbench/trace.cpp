#include "trace.hpp"

#include <algorithm>
// reconfnet-lint: allow(RNL003) host wall time is what the benchmark measures
#include <chrono>
#include <ostream>
#include <stdexcept>
#include <utility>

namespace reconfnet::perfbench {

std::int64_t now_ns() {
  // The reading never feeds the simulation or its output digest.
  // reconfnet-lint: allow(RNL003) host wall time is what the benchmark measures
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  // reconfnet-lint: allow(RNL003) unit conversion of the reading above
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now).count();
}

std::uint32_t Tracer::open(const char* name) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  const std::uint32_t parent = stack_.empty() ? kNoSpan : stack_.back();
  spans_.push_back({id, parent, name, now_ns(), 0});
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t id) {
  if (stack_.empty() || stack_.back() != id) {
    throw std::logic_error("Tracer: spans must close innermost first");
  }
  stack_.pop_back();
  spans_[id].end_ns = now_ns();
}

std::vector<std::int64_t> self_times_ns(std::span<const Span> spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent != kNoSpan) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    const std::int64_t lo = spans[i].start_ns;
    const std::int64_t hi = spans[i].end_ns;
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the union merged so far
    for (auto [start, end] : intervals) {
      start = std::max(start, reach);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

NameTotals totals_for(std::span<const Span> spans,
                      std::span<const std::int64_t> self_ns,
                      std::string_view name) {
  NameTotals totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    ++totals.count;
    totals.total_ns += spans[i].duration_ns();
    totals.self_ns += self_ns[i];
  }
  return totals;
}

void write_spans(std::ostream& os, std::span<const Span> spans) {
  os << "id\tparent\tname\tstart_ns\tend_ns\n";
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& span : spans) {
    os << span.id << '\t';
    if (span.parent == kNoSpan) {
      os << -1;
    } else {
      os << span.parent;
    }
    os << '\t' << span.name << '\t' << span.start_ns - origin << '\t'
       << span.end_ns - origin << '\n';
  }
}

DurationHistogram::DurationHistogram(std::int64_t resolution_ns,
                                     std::uint64_t buckets)
    : resolution_ns_(resolution_ns), hist_(buckets - 1) {}

void DurationHistogram::add(std::int64_t duration_ns) {
  hist_.add(static_cast<std::uint64_t>(std::max<std::int64_t>(duration_ns, 0) /
                                       resolution_ns_));
}

double DurationHistogram::quantile_ns(double q) const {
  return static_cast<double>(hist_.percentile(q)) *
         static_cast<double>(resolution_ns_);
}

}  // namespace reconfnet::perfbench
