// Shared source-scanning machinery for the reconfnet static checkers: the
// five analyzers (lint in tools/lint/, protocheck in tools/protocheck/,
// hotcheck in tools/hotcheck/, racecheck in tools/racecheck/, oraclecheck in
// tools/oraclecheck/) and the one `reconfnet_check <analyzer>` front end
// (tools/reconfnet_check.cpp) that drives them.
//
// The tools are deliberately zero-dependency: they tokenise and light-parse
// the sources themselves (no libclang), so they build and run on the
// gcc-only dev container and in CI alike, and the checker binary can be
// bootstrap-compiled from a handful of files with no build tree configured.
// Everything that is not rule logic lives here:
//
//   * Finding              — one rule-coded diagnostic (file:line: RULE msg)
//   * strip_source         — comment/string stripping preserving line structure
//   * tokenize             — identifier/punctuation token stream
//   * callee_reach         — the one-level same-file call walk
//   * collect_suppressions — `<marker> allow(XYZnnn) reason` comments, with
//                            the marker and rule prefix chosen per analyzer
//   * apply_suppressions   — the suppression pass every analyzer shares
//   * parse_toml_subset    — the small TOML dialect the spec files use
//                            ([[table]] arrays, [table]s, string/array values)
//   * Module / Checker     — what an analyzer hands the front end
//   * write_sarif          — SARIF 2.1.0 export for CI code-scanning upload
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace reconfnet::textscan {

// ---------------------------------------------------------------------------
// Findings

struct Finding {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;      // "RNL001", "RNP304", ...
  std::string message;
};

/// Sorts by (file, line, rule) and drops exact (file, line, rule) duplicates
/// (two scans may flag the same site). The canonical report order.
void sort_and_dedupe(std::vector<Finding>& findings);

// ---------------------------------------------------------------------------
// Small string helpers

bool starts_with(const std::string& s, const char* prefix);
std::string trim(const std::string& s);
bool is_ident_char(char c);
bool is_ident_start(char c);
std::string dirname_of(const std::string& path);

/// True when `path` starts with any of the given repo-relative prefixes.
bool matches_any_prefix(const std::string& path,
                        const std::vector<std::string>& prefixes);

/// Collapses "." and ".." components lexically ("tools/protocheck/../lint/x"
/// -> "tools/lint/x"). Leading ".." components are preserved.
std::string lexical_normalize(const std::string& path);

// ---------------------------------------------------------------------------
// Stripped source files

/// A source file after comment/string stripping. `code` holds the stripped
/// lines (comments and string/char literal contents blanked, line structure
/// preserved); `comments` holds the comment text found on each line, which is
/// where suppressions and NOLINT markers live.
struct SourceFile {
  std::string path;
  std::vector<std::string> code;
  std::vector<std::string> comments;
  /// Quoted includes: line number -> include path as written.
  std::vector<std::pair<std::size_t, std::string>> includes;
  [[nodiscard]] bool is_header() const;
};

/// Strips `text` into a SourceFile. Handles //, /* */, string/char literals
/// and raw strings; include targets are captured before stripping.
SourceFile strip_source(std::string path, const std::string& text);

// ---------------------------------------------------------------------------
// Token stream over the stripped source

struct Tok {
  enum class Kind { kIdent, kPunct } kind;
  std::string text;
  std::size_t line;  // 1-based
};

std::vector<Tok> tokenize(const std::vector<std::string>& code);

bool tok_is(const std::vector<Tok>& t, std::size_t i, const char* text);

/// `i` points at `<`; returns the index one past the matching `>`, or
/// `t.size()` if unbalanced. Good enough for type contexts, where comparison
/// operators cannot appear.
std::size_t skip_angles(const std::vector<Tok>& t, std::size_t i);

bool bracket_is_open(const std::string& t);   // ( { [
bool bracket_is_close(const std::string& t);  // ) } ]

/// `i` points at an opening bracket; returns the index of its matching
/// closer, or `t.size()` if unbalanced.
std::size_t match_bracket(const std::vector<Tok>& t, std::size_t i);

const std::set<std::string>& cpp_keywords();

// ---------------------------------------------------------------------------
// Light function / loop parsing over the token stream
//
// Shared by the checkers that reason about function bodies (hotcheck's hot
// regions, racecheck's parallel regions). All of this is heuristic
// light-parsing — good enough for the repo's house style, not a C++ grammar.

/// Keywords that can precede `name (` without `name` being a function
/// definition.
const std::set<std::string>& non_definition_preceders();

/// One function definition found in a token stream. Ranges are token
/// indices; `params` covers the tokens strictly inside the parameter list
/// parens, `body` the tokens strictly inside the outermost braces.
struct FunctionBody {
  std::string name;
  std::size_t line = 0;
  std::size_t params_begin = 0;
  std::size_t params_end = 0;
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
};

/// Finds definitions of `name` in `toks`. Tolerates qualified names,
/// trailing const/noexcept/ref-qualifiers, trailing return types and
/// constructor initializer lists; rejects plain calls and declarations by
/// requiring a `{` body reached through definition-shaped tokens only.
std::vector<FunctionBody> find_functions(const std::vector<Tok>& toks,
                                         const std::string& name);

/// Every registered file's token stream, keyed by repo-relative path.
using TokenMap = std::map<std::string, std::vector<Tok>>;
TokenMap tokenize_files(const std::map<std::string, SourceFile>& files);

/// A spec entry naming a file (and function) to resolve, as its drift is
/// reported: at (spec_path, line) under `rule`, led by `label` (e.g.
/// "hotpath 'bus-per-message'").
struct SpecEntry {
  std::string spec_path;
  std::size_t line = 0;
  std::string rule;
  std::string label;
};

/// Resolve-or-drift: the tokens of `file`, or nullptr after adding
/// "<label>: file F is not in the tree" to `drift` (if non-null).
const std::vector<Tok>* resolve_spec_file(const TokenMap& tokens,
                                          const std::string& file,
                                          const SpecEntry& entry,
                                          std::vector<Finding>* drift);
/// Resolve-or-drift: the definitions of `function` in `toks` (the tokens of
/// `file`); none after adding "<label>: function X not found in F".
std::vector<FunctionBody> resolve_spec_function(const std::vector<Tok>& toks,
                                                const std::string& file,
                                                const std::string& function,
                                                const SpecEntry& entry,
                                                std::vector<Finding>& drift);

/// Token range of one loop body (for/while/do) inside a function body.
struct LoopRange {
  std::size_t head = 0;  // token index of the loop keyword
  std::size_t begin = 0;
  std::size_t end = 0;
};

std::vector<LoopRange> collect_loops(const std::vector<Tok>& toks,
                                     std::size_t begin, std::size_t end);

/// One-level same-file call walk. `call` indexes the name token of a call
/// site in `toks`. Scans the body of that name's first definition in `toks`
/// that does not enclose the call (so recursion is skipped) and returns the
/// first identifier there, outside member access, for which `hit` holds;
/// returns "" when the callee is not defined in `toks` or nothing hits.
std::string callee_reach(const std::vector<Tok>& toks, std::size_t call,
                         const std::function<bool(const std::string&)>& hit);

// ---------------------------------------------------------------------------
// Suppressions

/// One well-formed suppression comment, kept per-comment (in addition to the
/// merged line->rules map) so stale-suppression reporting can point at the
/// exact comment whose rule no longer fires.
struct SuppressionComment {
  std::size_t line = 0;             ///< line carrying the comment
  std::vector<std::size_t> covers;  ///< lines whose findings it suppresses
  std::set<std::string> rules;
};

struct LineSuppressions {
  /// line -> rule ids allowed on that line.
  std::map<std::size_t, std::set<std::string>> allow;
  /// lines carrying a malformed suppression comment.
  std::vector<std::size_t> malformed;
  /// every well-formed suppression comment, in file order.
  std::vector<SuppressionComment> comments;
};

/// Collects `<marker> allow(<prefix>nnn[, ...]) reason` suppressions from a
/// file's comments. `marker` is the tool tag (e.g. "reconfnet-lint:"),
/// `rule_prefix` the three-letter rule family (e.g. "RNL"); ids must be the
/// prefix plus exactly three digits and the trailing reason is mandatory.
/// A comment alone on its line suppresses the next line that has code on it.
LineSuppressions collect_suppressions(const SourceFile& file,
                                      const std::string& marker,
                                      const std::string& rule_prefix);

/// One suppression comment whose rule no longer fires on the line it covers
/// (the `--stale-suppressions` report unit).
struct StaleSuppression {
  std::string file;
  std::size_t line = 0;  ///< line carrying the now-stale comment
  std::string rule;      ///< the rule id that no longer fires
};

/// Computes the stale subset of a file's suppression comments. `used` holds
/// the (line, rule) pairs that actually suppressed a finding during the run;
/// a comment rule is stale when none of the lines it covers used it.
std::vector<StaleSuppression> stale_suppressions(
    const std::string& path, const LineSuppressions& sup,
    const std::set<std::pair<std::size_t, std::string>>& used);

/// What one analyzer run produces. Each analyzer's Driver::Result extends it
/// with its own counters.
struct Report {
  std::vector<Finding> findings;  // sorted by (file, line, rule)
  /// Findings dropped by an inline allow or an [allow] carve-out, kept for
  /// SARIF suppression records.
  std::vector<Finding> suppressed_findings;
  /// Inline suppression comments whose rule no longer fires on the line
  /// they cover (the --stale-suppressions report).
  std::vector<StaleSuppression> stale;
  std::size_t files_checked = 0;
  std::size_t suppressed = 0;
  /// The analyzer's own counters as they lead the summary line's finding
  /// count, e.g. "47 hot functions, "; empty when it has none.
  std::string tallies;
};

/// How one analyzer spells its inline suppressions.
struct SuppressionStyle {
  std::string marker;          ///< comment tag, e.g. "reconfnet-lint:"
  std::string rule_prefix;     ///< rule family, e.g. "RNL"
  std::string malformed_rule;  ///< rule id for a malformed comment
  /// Whether findings dropped by an [allow] carve-out count toward
  /// Report::suppressed (inline suppressions always do).
  bool count_carve_outs = false;
};

/// The suppression pass every analyzer shares. Adds a `malformed_rule`
/// finding for each malformed suppression comment in `files`, then routes
/// each raw finding: one under an [allow] carve-out (`allow` maps a rule id
/// to path prefixes) or covered by an inline allow() of its rule goes to
/// `suppressed_findings`, every other one to `findings`. Malformed-comment
/// findings are never suppressed inline and never counted. Fills `stale`
/// with the allow() rules that suppressed nothing, then sorts and dedupes
/// both finding lists.
void apply_suppressions(
    const std::map<std::string, SourceFile>& files,
    const std::map<std::string, std::vector<std::string>>& allow,
    const SuppressionStyle& style, std::vector<Finding> raw, Report& report);

// ---------------------------------------------------------------------------
// TOML subset

/// One `key = value` entry. Values are either a scalar (quoted string with
/// the quotes removed, or a bare token such as a number) or a string array.
struct TomlEntry {
  std::string key;
  bool is_array = false;
  std::string scalar;
  std::vector<std::string> items;
  std::size_t line = 0;
};

/// One `[name]` table or `[[name]]` array-of-tables element, with its
/// entries in file order.
struct TomlSection {
  std::string name;
  bool is_array_of_tables = false;
  std::size_t line = 0;
  std::vector<TomlEntry> entries;
};

/// Parses the TOML subset every spec file uses: comments,
/// [[section]] / [section] headers, `key = "string"`, `key = bare-token`,
/// and `key = ["a", "b"]`. Returns false and fills `error` (prefixed with
/// "line N: ") on malformed input. Keys before any section header are an
/// error; section-name validation is left to the caller.
bool parse_toml_subset(const std::string& text,
                       std::vector<TomlSection>& sections, std::string& error);

/// Parses a section every spec shares: `[options]`, whose one key is
/// `roots` (accepted only when `roots` is non-null), and `[allow]`, rule id
/// -> path prefixes where the rule is off wholesale. Any other section is
/// unknown. Returns false and fills `error` ("line N: ...") on bad input.
bool parse_shared_section(
    const TomlSection& section, std::vector<std::string>* roots,
    std::map<std::string, std::vector<std::string>>& allow,
    std::string& error);

/// Parses `["a", "b"]` into items; returns false on malformed input.
bool parse_string_array(const std::string& value,
                        std::vector<std::string>& items);

// ---------------------------------------------------------------------------
// Analyzer modules

/// Version stamp shared by the five analyzers; bumped when a rule set, the
/// shared scanning layer or the checker's command line changes shape.
inline constexpr const char* kToolsVersion = "1.4.0";

/// One rule id plus its one-line summary — the unit of --list-rules output
/// and of each analyzer's static rule catalogue.
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// One configured analyzer run, as the front end drives it: register files,
/// then check them. Each analyzer's Driver derives from it.
class Checker {
 public:
  virtual ~Checker() = default;

  /// Repo-relative path prefixes the whole-tree walk covers.
  [[nodiscard]] virtual std::vector<std::string> roots() const = 0;
  /// Registers a file for the run. Paths must be repo-relative with '/'
  /// separators; contents are stripped immediately.
  virtual void add_file(const std::string& path, const std::string& content) {
    files_.emplace(path, strip_source(path, content));
  }
  /// Registers a path under the roots that is not itself checked; a run
  /// over explicit files sees every such path first.
  virtual void add_known_path(const std::string& /*path*/) {}
  /// Partial runs (an explicit file list instead of the full tree) skip the
  /// analyzer's whole-tree rules.
  void set_partial(bool partial) { partial_ = partial; }
  /// Runs every rule over the registered files.
  virtual Report check() = 0;

 protected:
  std::map<std::string, SourceFile> files_;  ///< registered files, by path
  bool partial_ = false;
};

/// What an analyzer hands the `reconfnet_check` front end.
struct Module {
  /// CLI name; reports as reconfnet_<name>, rule catalogue in
  /// tools/<name>/<name>.hpp.
  const char* name;
  const char* default_spec;  ///< repo-relative spec used without --spec
  std::vector<RuleInfo> rules;
  SuppressionStyle suppressions;
  /// Parses a spec into a ready Checker whose spec-anchored findings point
  /// at `spec_path`; returns null and fills `error` on malformed input.
  std::unique_ptr<Checker> (*load)(const std::string& spec_text,
                                   const std::string& spec_path,
                                   std::string& error);
};

// ---------------------------------------------------------------------------
// SARIF export

/// Writes the findings as a single-run SARIF 2.1.0 log (the format GitHub
/// code scanning ingests), with one reportingDescriptor per distinct rule id.
/// Paths are emitted as given (repo-relative), which is what the upload
/// action expects when run from the repository root. `suppressed` findings
/// are emitted as results carrying an inSource suppression record, which
/// code-scanning displays as dismissed rather than open.
void write_sarif(std::ostream& out, const std::string& tool_name,
                 const std::string& info_uri,
                 const std::vector<Finding>& findings,
                 const std::vector<Finding>& suppressed = {});

}  // namespace reconfnet::textscan
