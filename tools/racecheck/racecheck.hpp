// reconfnet_racecheck — concurrency-safety & determinism-under-parallelism
// analyzer for the reconfnet tree.
//
// The whole parallel-runtime correctness story (DESIGN.md §7) rests on the
// PR-2 discipline: per-trial/per-shard seed splitting, no shared mutable
// captures, and only commutative-or-ordered reductions, so `--jobs N` stays
// byte-identical to serial. Before the million-node sharded-bus refactor
// (ROADMAP item 1) multiplies the number of parallel regions, this fourth
// zero-dependency checker (on the shared tools/lint/textscan machinery, like
// reconfnet_lint, reconfnet_protocheck and reconfnet_hotcheck) makes that
// discipline machine-checked. The spec, tools/racecheck/concurrency.toml,
// declares:
//
//   [[spawn]]   one entry per parallel-dispatch call-site family: the callee
//               identifier (`parallel_for`, `run`, `run_trials`, `submit`,
//               `sweep`), an optional receiver type for member calls
//               (`TrialRunner`, `ThreadPool`, `Context`), which argument
//               carries the parallel callable, and how the body learns its
//               shard index (`param` = last lambda parameter, `context` =
//               a TrialContext& parameter, `none` = no index).
//   [[region]]  one entry per sanctioned dispatch site: the file + enclosing
//               function (or a `file_prefix` for a family of sites, e.g.
//               every bench sweep), the spawn family, the declared per-shard
//               `slots` (containers the body may write through the shard
//               index) and `readonly` names it may capture by reference.
//   [shared]    `readonly_types`: types safe to capture by const reference
//               into any region; `globals`: known-global mutable state that
//               parallel bodies must not reach (RNR506).
//   [options]   `roots`: path prefixes walked by the tree gate.
//   [allow]     rule id -> path prefixes where the rule is off wholesale.
//
// Rules (each finding prints `file:line: RNRxxx message`):
//
//   RNR501  a parallel-region lambda mutates (or explicitly captures by
//           reference) enclosing-scope state that is not a declared per-shard
//           slot or sanctioned read-only name
//   RNR502  Rng constructed or used inside a parallel region without a
//           .split(index) / trial_rng / derive_seed derivation from the
//           region's master seed
//   RNR503  mutation of a container indexed by anything other than the
//           shard/trial index inside a parallel body
//   RNR504  completion-order-dependent merging: push_back/insert into a
//           shared container from the body instead of writing slot[index]
//   RNR505  mutex/atomic/thread primitive introduced in src/ outside
//           src/runtime/ (ad-hoc synchronization breaks the determinism
//           model; flag it, require a reasoned suppression)
//   RNR506  a parallel body touches known-global mutable state, directly or
//           through a same-file callee (one-level call-graph walk)
//   RNR510  concurrency.toml drift: an undeclared dispatch site, or a
//           declared region whose file/function/site no longer exists
//   RNR590  malformed reconfnet-racecheck suppression comment
//
// Suppressions: `// reconfnet-racecheck: allow(RNRnnn) reason` on the
// offending line or alone on the line above (concurrency.toml carves RNR590
// out of tools/racecheck/ so this very paragraph does not trip the scanner). The dynamic half of the checker
// lives in src/runtime/racecheck.{hpp,cpp}: a logical ownership tracker and
// the schedule-perturbation replay harness (tests/racecheck_replay_test.cpp)
// prove at runtime what these rules approximate statically.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "../lint/textscan.hpp"

namespace reconfnet::racecheck {

using textscan::Finding;

/// One [[spawn]] entry: a family of parallel-dispatch call sites.
struct SpawnSpec {
  std::string name;      ///< family name ("parallel-for", "trial-runner", ...)
  std::string callee;    ///< callee identifier at the call site
  std::string receiver;  ///< receiver type for member calls; empty = free call
  /// Which call argument carries the parallel callable: "last" (default) or
  /// a 1-based position.
  std::string arg = "last";
  /// How the body learns its shard index: "param" (the lambda's last
  /// parameter is the shard index), "context" (a TrialContext& parameter
  /// carries .index/.rng), or "none" (no per-shard index, e.g. raw submit).
  std::string index = "param";
  std::size_t line = 0;  ///< line in concurrency.toml
};

/// One [[region]] entry: a sanctioned dispatch site (or site family).
struct RegionSpec {
  std::string name;
  std::string file;         ///< exact file (with `function`), or empty
  std::string file_prefix;  ///< prefix form: every site under it is covered
  std::string function;     ///< enclosing function for the exact-file form
  std::string spawn;        ///< spawn family name this region sanctions
  std::vector<std::string> slots;     ///< per-shard slot container names
  std::vector<std::string> readonly;  ///< names safe to capture by reference
  std::size_t line = 0;               ///< line in concurrency.toml
};

struct Spec {
  std::vector<std::string> roots = {"src/", "bench/", "tools/"};
  /// Types whose instances are safe to capture by (const) reference into any
  /// parallel region (immutable config blocks etc.).
  std::vector<std::string> readonly_types;
  /// Known-global mutable state identifiers for RNR506; identifiers starting
  /// with `g_` are always treated as globals.
  std::vector<std::string> globals;
  std::vector<SpawnSpec> spawns;
  std::vector<RegionSpec> regions;
  /// rule id -> path prefixes where the rule is switched off wholesale.
  std::map<std::string, std::vector<std::string>> allow;
};

/// Parses concurrency.toml. Returns false and fills `error` on malformed
/// input (unknown sections/keys, missing required fields, bad spawn/region
/// cross-references).
bool parse_spec(const std::string& text, Spec& spec, std::string& error);

/// The analyzer's rule catalogue, spec location and suppression style.
const textscan::Module& module();

/// Partial runs skip the drift checks (RNR510) for region files that were
/// not registered.
class Driver : public textscan::Checker {
 public:
  /// `spec_path` is where spec-anchored findings (RNR510) are reported; it
  /// defaults to the canonical location.
  explicit Driver(Spec spec,
                  std::string spec_path = "tools/racecheck/concurrency.toml");

  /// The spec's `roots`.
  [[nodiscard]] std::vector<std::string> roots() const override {
    return spec_.roots;
  }

  struct Result : textscan::Report {
    std::size_t sites_checked = 0;    ///< dispatch sites found
    std::size_t lambdas_checked = 0;  ///< parallel callables analyzed
  };

  /// Runs every rule over the registered files. Deterministic: files are
  /// processed in sorted path order and findings are sorted.
  Result run();
  textscan::Report check() override { return run(); }

 private:
  Spec spec_;
  std::string spec_path_;
};

}  // namespace reconfnet::racecheck
