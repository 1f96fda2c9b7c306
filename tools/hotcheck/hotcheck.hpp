// reconfnet_hotcheck — hot-path allocation/copy analyzer for the reconfnet
// tree.
//
// The paper's per-round O(log n) communication bounds (Section 5) only
// translate into wall-clock scalability if the simulator's constant factors
// stay flat per message. ROADMAP item 1 (the million-node engine) therefore
// needs an allocation-light, cache-friendly data plane — and nothing short of
// a profiler run used to stop per-round heap churn from creeping into
// `sim::Bus` or the overlay epoch loops. This third zero-dependency checker
// (on the shared tools/lint/textscan machinery, like reconfnet_lint and
// reconfnet_protocheck) closes that gap: a machine-readable spec,
// tools/hotcheck/hotpaths.toml, declares the hot functions, and the checker
// flags the allocation/copy patterns that dominate per-message constants.
//
//   [[hotpath]]  one entry per hot region: the file, the function names
//                declared hot in it, and whether the functions are `strict`
//                (per-message leaves where ANY container construction is
//                per-round churn) or loop-scoped (drivers where only
//                allocation inside loops is flagged).
//   [[budget]]   named allocation budgets (allocs-per-round etc.) enforced
//                at runtime by tests/allocbudget_test.cpp through the
//                support::AllocCounter harness — the same file pins the
//                budgets statically and dynamically.
//   [options]    `roots`: path prefixes walked by the tree gate.
//   [allow]      rule id -> path prefixes where the rule is off wholesale.
//
// Rules (each finding prints `file:line: RNHxxx message`):
//
//   RNH401  heap allocation in a hot region: `new` / make_unique /
//           make_shared / construction of an allocating std container inside
//           a hot loop (or anywhere in a `strict` function)
//   RNH402  hot-function parameter takes an allocating container by value
//           (copies the payload per call; pass by reference or std::move)
//   RNH403  std::map / std::unordered_map operation in a hot function
//           (per-message hashing/tree walk; use an index-addressed flat
//           structure keyed by dense NodeId instead)
//   RNH404  push_back/emplace_back loop in a hot function with no prior
//           reserve()/resize() of the same vector in that function
//   RNH405  string formatting in a hot function (to_string, str streams,
//           s(n)printf, std::format)
//   RNH410  hotpaths.toml drift: a declared file is missing from the tree or
//           a declared hot function is not found in its file
//   RNH490  malformed reconfnet-hotcheck suppression comment
//
// Suppressions: `// reconfnet-hotcheck: allow(RNH404) <reason>` on the
// offending line or alone on the line above. Findings anchored to the spec
// file (RNH410) are fixed by editing the spec or the code.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "../lint/textscan.hpp"

namespace reconfnet::hotcheck {

using textscan::Finding;

/// One [[hotpath]] entry: functions of one file declared hot.
struct HotPathSpec {
  std::string name;  ///< display name (optional; defaults to the file)
  std::string file;  ///< repo-relative file holding the functions
  std::vector<std::string> functions;  ///< function names declared hot
  /// Strict functions are per-message leaves: any container construction in
  /// the body is per-round churn. Non-strict functions are drivers: only
  /// allocation inside their loops is flagged.
  bool strict = false;
  std::size_t line = 0;  ///< line in hotpaths.toml
};

/// One [[budget]] entry: a named allocation budget. The checker only
/// validates shape; tests/allocbudget_test.cpp enforces the numbers at
/// runtime via support::AllocCounter.
struct BudgetSpec {
  std::string name;
  /// key -> integer scalar as written ("allocs_per_round" -> "0", ...).
  std::map<std::string, std::string> values;
  std::size_t line = 0;
};

struct Spec {
  std::vector<std::string> roots = {"src/"};
  std::vector<HotPathSpec> hotpaths;
  std::vector<BudgetSpec> budgets;
  /// rule id -> path prefixes where the rule is switched off wholesale.
  std::map<std::string, std::vector<std::string>> allow;
};

/// Parses hotpaths.toml. Returns false and fills `error` on malformed input
/// (unknown sections/keys, missing required fields, non-integer budgets).
bool parse_spec(const std::string& text, Spec& spec, std::string& error);

/// The analyzer's rule catalogue, spec location and suppression style.
const textscan::Module& module();

/// Partial runs skip the drift checks (RNH410) for hotpath files that were
/// not registered.
class Driver : public textscan::Checker {
 public:
  /// `spec_path` is where spec-anchored findings (RNH410) are reported; it
  /// defaults to the canonical location.
  explicit Driver(Spec spec,
                  std::string spec_path = "tools/hotcheck/hotpaths.toml");

  /// The spec's `roots`.
  [[nodiscard]] std::vector<std::string> roots() const override {
    return spec_.roots;
  }

  struct Result : textscan::Report {
    std::size_t hot_functions_checked = 0;
  };

  /// Runs every rule over the registered files. Deterministic: files are
  /// processed in sorted path order and findings are sorted.
  Result run();
  textscan::Report check() override { return run(); }

 private:
  Spec spec_;
  std::string spec_path_;
};

}  // namespace reconfnet::hotcheck
