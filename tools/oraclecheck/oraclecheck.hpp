// reconfnet_oraclecheck — t-late adversary information-flow analyzer for the
// reconfnet tree.
//
// Every result in the paper rests on the Section 1.1 adversary model: an
// r-bounded, t-late adversary sees the overlay topology *only* as a snapshot
// at least t rounds stale — never live node state, message contents, or
// fresh edges. Before this fifth zero-dependency checker (on the shared
// tools/lint/textscan machinery, like reconfnet_lint, reconfnet_protocheck,
// reconfnet_hotcheck and reconfnet_racecheck) that boundary was enforced
// only by comments. The spec, tools/oraclecheck/oracle.toml, declares:
//
//   [surface]      the adversary file prefixes, their permitted quoted
//                  includes, banned live-state type names, the identifiers
//                  that sanction an inline Rng seed, known-global mutable
//                  state, and the harness prefixes exempt from RNO603.
//   [[entrypoint]] one entry per adversary interface: file, abstract base
//                  class, entry method, and the view type it consumes.
//   [[servesite]]  one entry per sanctioned harness serve site: file,
//                  enclosing function, the live round identifier and the
//                  lateness expression that sim::serve_stale must be called
//                  with, verbatim.
//   [snapshot]     the SnapshotBuffer retention-policy pin: retention mode
//                  and the horizon method every serve site must call.
//   [options]      `roots`: path prefixes walked by the tree gate.
//   [allow]        rule id -> path prefixes where the rule is off wholesale.
//
// Rules (each finding prints `file:line: RNOxxx message`):
//
//   RNO601  adversary TU includes a header outside the permitted surface, or
//           references a live-state type name (bus, work meter, group table)
//   RNO602  adversary code reaches for the snapshot machinery itself:
//           SnapshotBuffer, latest()/stale_view()/serve_stale() calls, or
//           TopologySnapshot construction, instead of consuming the
//           harness-served stale view
//   RNO603  reverse isolation: protocol code (src/ outside the declared
//           harness prefixes) includes an adversary header or names a
//           concrete adversary strategy
//   RNO604  staleness-arithmetic drift: a raw stale_view() call outside the
//           snapshot layer, a serve_stale() call outside a declared serve
//           site, or a declared serve site whose arguments are not exactly
//           the spec-pinned (round, lateness) — literals and `now` serve
//           fresh views; also fires when a serve site fails to raise the
//           retention horizon before serving
//   RNO605  adversary strategy constructed with an inline Rng(...) seed that
//           is not derived via split/trial_rng/derive_seed from a master
//           seed: the adversary must draw from its own dedicated stream
//   RNO606  adversary code reaches known-global mutable state, directly or
//           through a same-file callee (one-level call-graph walk): shared
//           globals are a covert channel between adversary and protocol
//   RNO610  oracle.toml drift: an entrypoint or serve site that no longer
//           matches the tree, or a broken snapshot retention pin
//   RNO690  malformed reconfnet-oraclecheck suppression comment
//
// Suppressions: `// reconfnet-oraclecheck: allow(RNOnnn) reason` on the
// offending line or alone on the line above (oracle.toml carves RNO690 out
// of tools/oraclecheck/ so this very paragraph does not trip the scanner).
// The dynamic half of the checker is sim::StaleSnapshotView
// (src/sim/stale_view.hpp): under RECONFNET_ORACLEAUDIT every snapshot read
// re-asserts now - snapshot.round >= t via audit::check_adversary_lateness,
// and the leak-probe test (tests/adversary_test.cpp) replays adversaries to
// prove their output is a function of (stale view, universe, budget, own
// state) only.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "../lint/textscan.hpp"

namespace reconfnet::oraclecheck {

using textscan::Finding;
using textscan::SourceFile;

/// One [[entrypoint]] entry: an adversary interface the harness drives.
struct EntrypointSpec {
  std::string name;
  std::string file;       ///< adversary header declaring the interface
  std::string interface;  ///< abstract base class name
  std::string method;     ///< virtual entry method name
  std::string view;       ///< view type the method consumes ("" = unchecked)
  std::size_t line = 0;   ///< line in oracle.toml
};

/// One [[servesite]] entry: a sanctioned harness serve site.
struct ServeSiteSpec {
  std::string name;
  std::string file;          ///< harness TU containing the site
  std::string function;      ///< enclosing function
  std::string round_ident;   ///< live round identifier served as `now`
  std::string lateness;      ///< lateness expression, verbatim (e.g. "attack.lateness")
  std::size_t line = 0;      ///< line in oracle.toml
};

struct Spec {
  std::vector<std::string> roots = {"src/", "bench/", "tools/"};
  /// Path prefixes holding adversary code.
  std::vector<std::string> adversary_paths;
  /// Quoted-include prefixes adversary code may pull in.
  std::vector<std::string> permitted_includes;
  /// Live-state type names banned from adversary TUs.
  std::vector<std::string> live_state;
  /// Identifiers sanctioning an inline Rng(...) seed (RNO605).
  std::vector<std::string> rng_derivations;
  /// Known-global mutable identifiers for RNO606; `g_` prefix is built in.
  std::vector<std::string> globals;
  /// Harness prefixes exempt from RNO603.
  std::vector<std::string> harness_paths;
  /// [snapshot] retention pin.
  std::string retention;
  std::string buffer_file;
  std::string horizon_method;
  std::size_t snapshot_line = 0;  ///< line of the [snapshot] section
  std::vector<EntrypointSpec> entrypoints;
  std::vector<ServeSiteSpec> servesites;
  /// rule id -> path prefixes where the rule is switched off wholesale.
  std::map<std::string, std::vector<std::string>> allow;
};

/// Parses oracle.toml. Returns false and fills `error` on malformed input
/// (unknown sections/keys, missing required fields).
bool parse_spec(const std::string& text, Spec& spec, std::string& error);

/// The analyzer's rule catalogue, spec location and suppression style.
const textscan::Module& module();

/// Partial runs skip the drift checks (RNO610) for entrypoint/servesite
/// files that were not registered.
class Driver : public textscan::Checker {
 public:
  /// `spec_path` is where spec-anchored findings (RNO610) are reported; it
  /// defaults to the canonical location.
  explicit Driver(Spec spec,
                  std::string spec_path = "tools/oraclecheck/oracle.toml");

  /// The spec's `roots`.
  [[nodiscard]] std::vector<std::string> roots() const override {
    return spec_.roots;
  }

  struct Result : textscan::Report {
    std::size_t adversary_files = 0;   ///< files under adversary paths
    std::size_t servesites_checked = 0;
  };

  /// Runs every rule over the registered files. Deterministic: files are
  /// processed in sorted path order and findings are sorted.
  Result run();
  textscan::Report check() override { return run(); }

 private:
  Spec spec_;
  std::string spec_path_;
};

}  // namespace reconfnet::oraclecheck
