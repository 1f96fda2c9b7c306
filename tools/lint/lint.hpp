// reconfnet_lint — domain-specific static checker for the reconfnet tree.
//
// The determinism contract (every experiment is a pure function of
// (master_seed, trial_index); --jobs N is byte-identical to --jobs 1) and the
// layer DAG are enforced here, ahead of the runtime tests that would only
// catch a breach after the fact. The checker is deliberately zero-dependency:
// the shared scanning machinery lives in tools/lint/textscan.{hpp,cpp}
// (tokenizer, source stripper, suppression pass, TOML subset), which the
// other four analyzers build on as well. Run it as `reconfnet_check lint`.
//
// Rule families (each finding prints `file:line: RNLxxx message`):
//
//   Determinism (RNL0xx)
//     RNL001  std::random_device — nondeterministic seed source
//     RNL002  rand()/srand()/*rand48 — hidden global-state RNG
//     RNL003  std::chrono / time() / clock_gettime() etc. — wall-clock input
//     RNL004  __DATE__/__TIME__/__TIMESTAMP__ — build-time stamps
//     RNL005  iteration over std::unordered_map/unordered_set — bucket order
//             is implementation-defined; extract + sort instead
//     RNL006  pointer values as keys (std::hash<T*>, std::less<T*>,
//             reinterpret_cast to uintptr_t) — addresses vary per run
//
//   Layering (RNL1xx) — the include DAG from tools/lint/layers.toml
//     RNL101  include of a higher layer (upward/cross-layer edge)
//     RNL102  file or quoted include not covered by the layer map
//
//   Hygiene (RNL2xx)
//     RNL201  header without #pragma once
//     RNL202  using namespace in a header
//     RNL203  NOLINT without a rule name and reason
//     RNL204  malformed reconfnet-lint suppression comment
//
// Suppressions: `// reconfnet-lint: allow(RNLnnn) <reason>` on the offending
// line or alone on the line above. Path-level allowances live in the
// [allow] section of the config (e.g. the RNG implementation itself).
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "textscan.hpp"

namespace reconfnet::lint {

using textscan::Finding;
using textscan::SourceFile;

/// One layer of the include DAG. Layers are ordered bottom -> top; a file may
/// include files whose layer index is <= its own. `paths` entries are
/// repo-relative prefixes ("src/support/") or file-stem prefixes
/// ("src/sim/metrics."); the longest matching prefix across all layers wins,
/// so a single file can be carved out of its directory's layer.
struct Layer {
  std::string name;
  std::vector<std::string> paths;
};

struct Config {
  std::vector<Layer> layers;
  /// rule id -> path prefixes where the rule is switched off wholesale.
  std::map<std::string, std::vector<std::string>> allow;
};

/// Parses the layers.toml subset: [[layer]] tables with name/paths, and an
/// [allow] table mapping rule ids to path arrays. Returns false and fills
/// `error` on malformed input.
bool parse_config(const std::string& text, Config& config, std::string& error);

/// The analyzer's rule catalogue, spec location and suppression style.
const textscan::Module& module();

class Driver : public textscan::Checker {
 public:
  explicit Driver(Config config);

  /// The whole first-party tree: src/ bench/ tools/ examples/ tests/.
  [[nodiscard]] std::vector<std::string> roots() const override;

  /// Registers a file for the run; it is also a known path.
  void add_file(const std::string& path, const std::string& content) override;

  /// Registers a path for include resolution only (not linted). Lets a
  /// partial run (explicit file arguments) resolve includes of files that
  /// are not themselves being checked.
  void add_known_path(const std::string& path) override;

  using Result = textscan::Report;

  /// Runs every rule over the registered files. Deterministic: files are
  /// processed in sorted path order and findings are sorted.
  Result run();
  textscan::Report check() override { return run(); }

 private:
  struct Decls;

  [[nodiscard]] int layer_of(const std::string& path) const;
  [[nodiscard]] std::string resolve_include(const std::string& includer,
                                            const std::string& target) const;

  void check_determinism(const SourceFile& file, const Decls& decls,
                         std::vector<Finding>& out) const;
  void check_layering(const SourceFile& file, std::vector<Finding>& out) const;
  void check_hygiene(const SourceFile& file, std::vector<Finding>& out) const;

  Config config_;
  std::set<std::string> known_paths_;
};

}  // namespace reconfnet::lint
