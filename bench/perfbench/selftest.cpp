// Self-tests of the benchmark's own pieces: tracer neutrality (decorated and
// undecorated trials give the same digest), self-time arithmetic, percentile
// and sample-count reporting, digest sensitivity, and the decorators'
// promise never to read the adversary's stale view.
//
//   python3 bench/perfbench/run.py --selftest
//
// Prints one line per check and exits non-zero if any check failed.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "adversary/dos.hpp"
#include "report.hpp"
#include "sim/snapshot.hpp"
#include "sim/stale_view.hpp"
#include "support/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace reconfnet;
using namespace reconfnet::perfbench;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_tracer_neutrality() {
  const Params params = small_params();
  for (const char* name : {"churn", "combined-isolation", "dht-zipf",
                           "nodelevel"}) {
    const Workload workload = *parse_workload(name);
    const TrialResult plain = run_trial(workload, params, 7, nullptr);
    Tracer tracer;
    const TrialResult traced = run_trial(workload, params, 7, &tracer);
    check(plain.violation.empty() && traced.violation.empty(),
          std::string(name) + ": output checks pass (" + plain.violation +
              traced.violation + ")");
    check(plain.digest == traced.digest,
          std::string(name) + ": decorated and undecorated digests agree");
    check(!tracer.spans().empty() && tracer.spans().front().parent == kNoSpan,
          std::string(name) + ": traced trial records a rooted span tree");
  }
}

void test_digest_sensitivity() {
  const Params params = small_params();
  const TrialResult a = run_trial(Workload::kChurn, params, 7, nullptr);
  const TrialResult b = run_trial(Workload::kChurn, params, 8, nullptr);
  check(a.digest != b.digest, "another seed changes the churn digest");

  Digest base;
  Digest changed;
  for (std::uint64_t value : {3u, 1u, 4u, 1u, 5u}) base.add(value);
  for (std::uint64_t value : {3u, 1u, 4u, 1u, 6u}) changed.add(value);
  check(base.value() != changed.value(),
        "one changed simulated output changes the digest");
  Digest reordered;
  for (std::uint64_t value : {1u, 3u, 4u, 1u, 5u}) reordered.add(value);
  check(base.value() != reordered.value(), "the digest is order-sensitive");
}

void test_self_time() {
  // root [0, 100) with children a [10, 40) and b [50, 90); a has child
  // c [20, 30); b has a child d [80, 120) that overhangs b and the root.
  const std::vector<Span> spans = {
      {0, kNoSpan, "root", 0, 100}, {1, 0, "a", 10, 40},
      {2, 1, "c", 20, 30},          {3, 0, "b", 50, 90},
      {4, 3, "d", 80, 120},
  };
  const auto self = self_times_ns(spans);
  check(self[0] == 100 - 30 - 40, "root self time excludes both children");
  check(self[1] == 30 - 10, "a self time excludes c");
  check(self[2] == 10, "leaf self time is its duration");
  check(self[3] == 40 - 10, "b self time clips the overhanging child");
  const NameTotals totals = totals_for(spans, self, "a");
  check(totals.count == 1 && totals.total_ns == 30 && totals.self_ns == 20,
        "totals_for sums count, duration and self time by name");

  // Overlapping children are counted once.
  const std::vector<Span> overlap = {
      {0, kNoSpan, "root", 0, 100}, {1, 0, "x", 10, 60}, {2, 0, "y", 40, 70}};
  check(self_times_ns(overlap)[0] == 100 - 60,
        "overlapping children cover their union only");

  Tracer tracer;
  {
    const Tracer::Scope outer(&tracer, "outer");
    const Tracer::Scope inner(&tracer, "inner");
  }
  check(tracer.spans().size() == 2 && tracer.spans()[1].parent == 0 &&
            tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns,
        "nested scopes record parent links and close innermost first");
}

void test_percentiles() {
  const std::vector<double> values = {0.3, 0.1, 0.2, 0.5};
  const runtime::Json median = median_metric(values, "s");
  check(near(median.find("value")->as_double(), 0.25) &&
            median.find("samples")->as_uint() == 4 &&
            median.find("unit")->as_string() == "s",
        "median metric reports the median, its unit and its sample count");

  DurationHistogram hist(10, 1000);
  for (int i = 1; i <= 100; ++i) hist.add(i * 10);  // 10 ns .. 1000 ns
  check(near(hist.quantile_ns(0.5), 500.0), "histogram p50 is exact");
  check(near(hist.quantile_ns(0.99), 990.0), "histogram p99 is exact");
  check(hist.count() == 100, "histogram counts its samples");
  hist.add(1'000'000);
  check(hist.overflow() == 1, "durations past the last bucket overflow");
}

void test_stale_view_untouched() {
  sim::TopologySnapshot snapshot;
  snapshot.round = 3;
  for (sim::NodeId node = 0; node < 32; ++node) {
    snapshot.nodes.push_back(node);
    snapshot.edges.emplace_back(node, (node + 1) % 32);
  }
  std::vector<sim::NodeId> universe(snapshot.nodes);
  Tracer tracer;
  LayerCounts counts;

  adversary::NoDos none;
  TracedDos traced_none(none, tracer, counts);
  const sim::StaleSnapshotView view(&snapshot, 10, 5);
  (void)traced_none.choose(view, universe, 4, 10);
  check(view.reads() == 0, "the decorator never reads the stale view");

  support::Rng plain_master(5);
  support::Rng traced_master(5);
  adversary::RandomDos plain_random(plain_master.split(1));
  adversary::RandomDos inner_random(traced_master.split(1));
  TracedDos traced_random(inner_random, tracer, counts);
  const sim::StaleSnapshotView plain_view(&snapshot, 10, 5);
  const sim::StaleSnapshotView traced_view(&snapshot, 10, 5);
  const auto expected = plain_random.choose(plain_view, universe, 8, 10);
  const auto got = traced_random.choose(traced_view, universe, 8, 10);
  check(plain_view.reads() == traced_view.reads(),
        "a decorated strategy reads the view exactly as often as a bare one");
  check(expected.sorted_ids() == got.sorted_ids() &&
            counts.dos_blocked_nodes == got.size(),
        "the decorator returns the strategy's blocked set and counts it");
}

}  // namespace

int main() {
  test_self_time();
  test_percentiles();
  test_stale_view_untouched();
  test_digest_sensitivity();
  test_tracer_neutrality();
  std::cout << (g_failures == 0 ? "all self-tests passed"
                                : std::to_string(g_failures) + " failed")
            << "\n";
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
