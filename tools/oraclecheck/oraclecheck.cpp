#include "oraclecheck.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

namespace reconfnet::oraclecheck {

using textscan::FunctionBody;
using textscan::Tok;
using textscan::find_functions;
using textscan::match_bracket;
using textscan::tok_is;
using textscan::tokenize;

// ---------------------------------------------------------------------------
// Rule catalogue

const textscan::Module& module() {
  static const textscan::Module kModule = {
      .name = "oraclecheck",
      .default_spec = "tools/oraclecheck/oracle.toml",
      .rules = {
          {"RNO601",
           "adversary TU includes or references live state outside the "
           "permitted read surface"},
          {"RNO602",
           "adversary code reaches for the snapshot machinery instead of the "
           "harness-served stale view"},
          {"RNO603",
           "protocol code includes an adversary header or names a concrete "
           "adversary strategy"},
          {"RNO604",
           "staleness-arithmetic drift: serve site deviates from the "
           "spec-pinned stale_view(now - t) shape"},
          {"RNO605",
           "adversary constructed with an inline Rng seed not derived from a "
           "dedicated split stream"},
          {"RNO606",
           "adversary code reaches known-global mutable state (covert channel "
           "to the protocol layer)"},
          {"RNO610",
           "oracle.toml drift (dead entrypoint/servesite or broken retention "
           "pin)"},
          {"RNO690", "malformed reconfnet-oraclecheck suppression"},
      },
      .suppressions = {"reconfnet-oraclecheck:", "RNO", "RNO690",
                       /*count_carve_outs=*/true},
      .load = [](const std::string& spec_text, const std::string& spec_path,
                 std::string& error) -> std::unique_ptr<textscan::Checker> {
        Spec spec;
        if (!parse_spec(spec_text, spec, error)) return nullptr;
        return std::make_unique<Driver>(std::move(spec), spec_path);
      },
  };
  return kModule;
}

// ---------------------------------------------------------------------------
// Spec parsing

namespace {

bool fill_entrypoint(const textscan::TomlSection& section, EntrypointSpec& ep,
                     std::string& error) {
  ep.line = section.line;
  for (const auto& entry : section.entries) {
    if (entry.is_array) {
      error = "line " + std::to_string(entry.line) + ": entrypoint key " +
              entry.key + " needs a string";
      return false;
    }
    if (entry.key == "name") {
      ep.name = entry.scalar;
    } else if (entry.key == "file") {
      ep.file = entry.scalar;
    } else if (entry.key == "interface") {
      ep.interface = entry.scalar;
    } else if (entry.key == "method") {
      ep.method = entry.scalar;
    } else if (entry.key == "view") {
      ep.view = entry.scalar;
    } else if (entry.key == "note") {
      // Documentation only.
    } else {
      error = "line " + std::to_string(entry.line) +
              ": unknown entrypoint key " + entry.key;
      return false;
    }
  }
  if (ep.name.empty() || ep.file.empty() || ep.interface.empty() ||
      ep.method.empty()) {
    error = "line " + std::to_string(section.line) +
            ": [[entrypoint]] needs name, file, interface and method";
    return false;
  }
  return true;
}

bool fill_servesite(const textscan::TomlSection& section, ServeSiteSpec& site,
                    std::string& error) {
  site.line = section.line;
  for (const auto& entry : section.entries) {
    if (entry.is_array) {
      error = "line " + std::to_string(entry.line) + ": servesite key " +
              entry.key + " needs a string";
      return false;
    }
    if (entry.key == "name") {
      site.name = entry.scalar;
    } else if (entry.key == "file") {
      site.file = entry.scalar;
    } else if (entry.key == "function") {
      site.function = entry.scalar;
    } else if (entry.key == "round") {
      site.round_ident = entry.scalar;
    } else if (entry.key == "lateness") {
      site.lateness = entry.scalar;
    } else if (entry.key == "note") {
      // Documentation only.
    } else {
      error = "line " + std::to_string(entry.line) +
              ": unknown servesite key " + entry.key;
      return false;
    }
  }
  if (site.name.empty() || site.file.empty() || site.function.empty() ||
      site.round_ident.empty() || site.lateness.empty()) {
    error = "line " + std::to_string(section.line) +
            ": [[servesite]] needs name, file, function, round and lateness";
    return false;
  }
  return true;
}

}  // namespace

bool parse_spec(const std::string& text, Spec& spec, std::string& error) {
  spec = Spec{};
  std::vector<textscan::TomlSection> sections;
  if (!textscan::parse_toml_subset(text, sections, error)) return false;
  for (const auto& section : sections) {
    if (section.is_array_of_tables && section.name == "entrypoint") {
      EntrypointSpec ep;
      if (!fill_entrypoint(section, ep, error)) return false;
      spec.entrypoints.push_back(std::move(ep));
    } else if (section.is_array_of_tables && section.name == "servesite") {
      ServeSiteSpec site;
      if (!fill_servesite(section, site, error)) return false;
      spec.servesites.push_back(std::move(site));
    } else if (!section.is_array_of_tables && section.name == "surface") {
      for (const auto& entry : section.entries) {
        if (!entry.is_array) {
          error = "line " + std::to_string(entry.line) + ": surface key " +
                  entry.key + " needs an array";
          return false;
        }
        if (entry.key == "adversary_paths") {
          spec.adversary_paths = entry.items;
        } else if (entry.key == "permitted_includes") {
          spec.permitted_includes = entry.items;
        } else if (entry.key == "live_state") {
          spec.live_state = entry.items;
        } else if (entry.key == "rng_derivations") {
          spec.rng_derivations = entry.items;
        } else if (entry.key == "globals") {
          spec.globals = entry.items;
        } else if (entry.key == "harness_paths") {
          spec.harness_paths = entry.items;
        } else {
          error = "line " + std::to_string(entry.line) +
                  ": unknown surface key " + entry.key;
          return false;
        }
      }
    } else if (!section.is_array_of_tables && section.name == "snapshot") {
      spec.snapshot_line = section.line;
      for (const auto& entry : section.entries) {
        if (entry.is_array) {
          error = "line " + std::to_string(entry.line) + ": snapshot key " +
                  entry.key + " needs a string";
          return false;
        }
        if (entry.key == "retention") {
          spec.retention = entry.scalar;
        } else if (entry.key == "buffer_file") {
          spec.buffer_file = entry.scalar;
        } else if (entry.key == "horizon_method") {
          spec.horizon_method = entry.scalar;
        } else {
          error = "line " + std::to_string(entry.line) +
                  ": unknown snapshot key " + entry.key;
          return false;
        }
      }
    } else if (!textscan::parse_shared_section(section, &spec.roots,
                                               spec.allow, error)) {
      return false;
    }
  }
  if (spec.adversary_paths.empty()) {
    error = "spec declares no [surface] adversary_paths";
    return false;
  }
  if (!spec.retention.empty() && spec.retention != "lateness-horizon") {
    error = "line " + std::to_string(spec.snapshot_line) +
            ": unknown snapshot retention policy '" + spec.retention +
            "' (the only sound policy is \"lateness-horizon\")";
    return false;
  }
  std::set<std::string> names;
  for (const EntrypointSpec& ep : spec.entrypoints) {
    if (!names.insert("e:" + ep.name).second) {
      error = "line " + std::to_string(ep.line) + ": duplicate entrypoint " +
              ep.name;
      return false;
    }
  }
  for (const ServeSiteSpec& site : spec.servesites) {
    if (!names.insert("s:" + site.name).second) {
      error = "line " + std::to_string(site.line) + ": duplicate servesite " +
              site.name;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Token-level helpers

namespace {

/// Splits a spec expression like "attack.lateness" into the token texts the
/// tokenizer would produce for it, so it can be matched as a contiguous
/// subsequence of call-argument tokens.
std::vector<std::string> tokenize_expr(const std::string& expr) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < expr.size()) {
    const char c = expr[i];
    if (c == ' ') {
      ++i;
      continue;
    }
    if (textscan::is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < expr.size() && textscan::is_ident_char(expr[j])) ++j;
      out.push_back(expr.substr(i, j - i));
      i = j;
      continue;
    }
    if (c == '-' && i + 1 < expr.size() && expr[i + 1] == '>') {
      out.push_back("->");
      i += 2;
      continue;
    }
    out.push_back(std::string(1, c));
    ++i;
  }
  return out;
}

/// True when `needle` occurs as a contiguous run of token texts in
/// toks[begin, end).
bool contains_token_run(const std::vector<Tok>& toks, std::size_t begin,
                        std::size_t end,
                        const std::vector<std::string>& needle) {
  if (needle.empty() || begin + needle.size() > end) return false;
  for (std::size_t i = begin; i + needle.size() <= end; ++i) {
    bool match = true;
    for (std::size_t k = 0; k < needle.size(); ++k) {
      if (toks[i + k].text != needle[k]) {
        match = false;
        break;
      }
    }
    if (match) return true;
  }
  return false;
}

/// A single-character punctuation token holding a digit: how numeric
/// literals surface in the token stream (identifiers cannot start with a
/// digit, so `42` lexes as two digit puncts and `0x...` as `0` + ident).
bool is_digit_tok(const Tok& tok) {
  return tok.kind == Tok::Kind::kPunct && tok.text.size() == 1 &&
         tok.text[0] >= '0' && tok.text[0] <= '9';
}

/// Snapshot-machinery member/free calls an adversary must never make.
const std::set<std::string>& snapshot_calls() {
  static const std::set<std::string> kCalls = {"latest", "stale_view",
                                               "serve_stale"};
  return kCalls;
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver

Driver::Driver(Spec spec, std::string spec_path)
    : spec_(std::move(spec)), spec_path_(std::move(spec_path)) {}

Driver::Result Driver::run() {
  Result result;
  result.files_checked = files_.size();

  const textscan::TokenMap tokens = textscan::tokenize_files(files_);

  const auto is_adversary = [&](const std::string& path) {
    return textscan::matches_any_prefix(path, spec_.adversary_paths);
  };
  const auto is_harness = [&](const std::string& path) {
    return textscan::matches_any_prefix(path, spec_.harness_paths);
  };
  const auto is_global = [&](const std::string& name) {
    if (name.size() > 2 && name.compare(0, 2, "g_") == 0) return true;
    return std::find(spec_.globals.begin(), spec_.globals.end(), name) !=
           spec_.globals.end();
  };

  // Adversary-path prefixes in include form: "src/adversary/" sources write
  // their includes as "adversary/...".
  std::vector<std::string> adversary_include_prefixes;
  for (const std::string& prefix : spec_.adversary_paths) {
    adversary_include_prefixes.push_back(
        textscan::starts_with(prefix, "src/") ? prefix.substr(4) : prefix);
  }

  // Concrete strategy names: classes/structs under the adversary paths that
  // derive from a declared entrypoint interface. These are what protocol
  // code must not name (RNO603) and what RNO605 watches constructions of.
  std::set<std::string> interfaces;
  for (const EntrypointSpec& ep : spec_.entrypoints)
    interfaces.insert(ep.interface);
  std::set<std::string> strategies;
  for (const auto& [path, toks] : tokens) {
    if (!is_adversary(path)) continue;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent ||
          (toks[i].text != "class" && toks[i].text != "struct")) {
        continue;
      }
      if (toks[i + 1].kind != Tok::Kind::kIdent) continue;
      const std::string& name = toks[i + 1].text;
      // Scan the inheritance clause (up to the opening brace) for one of the
      // declared interfaces.
      for (std::size_t j = i + 2; j < toks.size() && toks[j].text != "{" &&
                                  toks[j].text != ";";
           ++j) {
        if (toks[j].kind == Tok::Kind::kIdent &&
            interfaces.count(toks[j].text) != 0) {
          strategies.insert(name);
          break;
        }
      }
    }
  }

  // --- adversary-file rules: RNO601, RNO602, RNO606 ------------------------
  for (const auto& [path, toks] : tokens) {
    if (!is_adversary(path)) continue;
    ++result.adversary_files;
    const SourceFile& file = files_.at(path);

    // RNO601 (include leg): every quoted include must be on the permitted
    // surface.
    for (const auto& [line, include] : file.includes) {
      if (textscan::matches_any_prefix(include, spec_.permitted_includes))
        continue;
      result.findings.push_back(
          {path, line, "RNO601",
           "adversary TU includes \"" + include +
               "\" which is outside the permitted read surface (stale view, "
               "id/blocked value types, support); a t-late adversary must "
               "not see live state"});
    }

    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      const std::string& t = toks[i].text;
      const bool member_access =
          i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");

      // RNO601 (reference leg): live-state type names.
      if (std::find(spec_.live_state.begin(), spec_.live_state.end(), t) !=
          spec_.live_state.end()) {
        result.findings.push_back(
            {path, toks[i].line, "RNO601",
             "adversary code references live-state type '" + t +
                 "'; the adversary may only consume the harness-served "
                 "stale view"});
        continue;
      }

      // RNO602: snapshot machinery.
      if (t == "SnapshotBuffer") {
        result.findings.push_back(
            {path, toks[i].line, "RNO602",
             "adversary code reaches for SnapshotBuffer; the harness serves "
             "the stale view — the adversary never touches the buffer"});
        continue;
      }
      if (t == "TopologySnapshot") {
        result.findings.push_back(
            {path, toks[i].line, "RNO602",
             "adversary code references TopologySnapshot directly; consume "
             "the access-audited sim::StaleSnapshotView instead"});
        continue;
      }
      if (snapshot_calls().count(t) != 0 && tok_is(toks, i + 1, "(")) {
        result.findings.push_back(
            {path, toks[i].line, "RNO602",
             "adversary code calls " + t +
                 "(); fresh or self-served snapshots break the t-late "
                 "contract"});
        continue;
      }

      // RNO606: known-global mutable state, directly...
      if (!member_access && is_global(t)) {
        result.findings.push_back(
            {path, toks[i].line, "RNO606",
             "adversary code touches global mutable state '" + t +
                 "'; shared globals are a covert channel between the "
                 "adversary and the protocol"});
        continue;
      }
      // ...or through a same-file callee (one-level call-graph walk).
      if (member_access || !tok_is(toks, i + 1, "(")) continue;
      if (textscan::cpp_keywords().count(t) != 0) continue;
      // Skip the name token of a definition: `f(...) {` or `f(...) : init`
      // is f being defined, not called.
      {
        std::size_t after = match_bracket(toks, i + 1) + 1;
        while (after < toks.size() && toks[after].kind == Tok::Kind::kIdent &&
               (toks[after].text == "const" ||
                toks[after].text == "noexcept" ||
                toks[after].text == "override")) {
          ++after;
        }
        if (after < toks.size() &&
            (toks[after].text == "{" || toks[after].text == ":")) {
          continue;
        }
      }
      const std::string global = textscan::callee_reach(toks, i, is_global);
      if (!global.empty()) {
        result.findings.push_back(
            {path, toks[i].line, "RNO606",
             "adversary code calls '" + t +
                 "' which touches global mutable state '" + global +
                 "' (one-level call-graph walk)"});
      }
    }
  }

  // --- RNO603: reverse isolation -------------------------------------------
  for (const auto& [path, toks] : tokens) {
    if (!textscan::starts_with(path, "src/")) continue;
    if (is_adversary(path) || is_harness(path)) continue;
    const SourceFile& file = files_.at(path);
    for (const auto& [line, include] : file.includes) {
      if (textscan::matches_any_prefix(include, adversary_include_prefixes)) {
        result.findings.push_back(
            {path, line, "RNO603",
             "protocol code includes adversary header \"" + include +
                 "\"; the protocol must not read adversary internals "
                 "(declare the file under harness_paths if it is a harness)"});
      }
    }
    for (const Tok& tok : toks) {
      if (tok.kind != Tok::Kind::kIdent) continue;
      if (strategies.count(tok.text) == 0) continue;
      result.findings.push_back(
          {path, tok.line, "RNO603",
           "protocol code names concrete adversary strategy '" + tok.text +
               "'; protocol behavior must not depend on which adversary is "
               "attacking"});
    }
  }

  // --- RNO604: staleness arithmetic ----------------------------------------
  const std::string buffer_dir = textscan::dirname_of(spec_.buffer_file);
  for (const auto& [path, toks] : tokens) {
    if (!textscan::starts_with(path, "src/")) continue;
    if (is_adversary(path)) continue;  // RNO602 owns adversary files
    const bool in_buffer_layer =
        !buffer_dir.empty() &&
        textscan::starts_with(path, (buffer_dir + "/").c_str());

    // Serve-site function ranges declared for this file.
    struct SiteRange {
      const ServeSiteSpec* site;
      std::size_t begin;
      std::size_t end;
    };
    std::vector<SiteRange> ranges;
    for (const ServeSiteSpec& site : spec_.servesites) {
      if (site.file != path) continue;
      for (const FunctionBody& fn : find_functions(toks, site.function)) {
        ranges.push_back({&site, fn.body_begin, fn.body_end});
      }
    }

    for (std::size_t i = 0; i < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      const std::string& t = toks[i].text;
      if (!tok_is(toks, i + 1, "(")) continue;

      // Raw stale_view() outside the snapshot layer: bypasses the
      // access-audited serve path.
      if (t == "stale_view" && !in_buffer_layer) {
        result.findings.push_back(
            {path, toks[i].line, "RNO604",
             "raw SnapshotBuffer::stale_view() call; harnesses must serve "
             "adversaries through sim::serve_stale(buffer, now, lateness) "
             "so the view is access-audited"});
        continue;
      }
      if (t != "serve_stale" || in_buffer_layer) continue;

      const SiteRange* covering = nullptr;
      for (const SiteRange& range : ranges) {
        if (range.begin <= i && i < range.end) {
          covering = &range;
          break;
        }
      }
      if (covering == nullptr) {
        result.findings.push_back(
            {path, toks[i].line, "RNO604",
             "serve_stale() call outside any declared [[servesite]]; add "
             "the site to oracle.toml so its staleness arithmetic is "
             "pinned"});
        continue;
      }
      ++result.servesites_checked;
      const std::size_t close = match_bracket(toks, i + 1);
      if (close >= toks.size()) continue;
      const std::size_t args_begin = i + 2;
      const ServeSiteSpec& site = *covering->site;
      bool literal = false;
      for (std::size_t k = args_begin; k < close; ++k) {
        if (is_digit_tok(toks[k])) literal = true;
      }
      if (literal) {
        result.findings.push_back(
            {path, toks[i].line, "RNO604",
             "serve site '" + site.name +
                 "' passes a numeric literal to serve_stale; the lateness "
                 "must be the spec-pinned expression " + site.lateness});
      }
      if (!contains_token_run(toks, args_begin, close,
                              tokenize_expr(site.round_ident))) {
        result.findings.push_back(
            {path, toks[i].line, "RNO604",
             "serve site '" + site.name + "' does not pass the declared "
                 "round identifier '" + site.round_ident +
                 "' as `now`; serving anything else drifts the staleness "
                 "arithmetic"});
      }
      if (!contains_token_run(toks, args_begin, close,
                              tokenize_expr(site.lateness))) {
        result.findings.push_back(
            {path, toks[i].line, "RNO604",
             "serve site '" + site.name + "' does not pass the declared "
                 "lateness expression '" + site.lateness +
                 "'; hardcoded or missing lateness serves too-fresh views"});
      }
      // Retention pin: the serving function must raise the horizon so
      // capacity eviction can never starve this site.
      if (!spec_.horizon_method.empty()) {
        bool raises = false;
        for (std::size_t k = covering->begin; k < covering->end; ++k) {
          if (toks[k].kind == Tok::Kind::kIdent &&
              toks[k].text == spec_.horizon_method &&
              tok_is(toks, k + 1, "(")) {
            raises = true;
            break;
          }
        }
        if (!raises) {
          result.findings.push_back(
              {path, toks[i].line, "RNO604",
               "serve site '" + site.name + "' never calls " +
                   spec_.horizon_method +
                   "(); capacity eviction may silently starve the stale "
                   "view for large lateness"});
        }
      }
    }
  }

  // --- RNO605: adversary RNG stream discipline -----------------------------
  for (const auto& [path, toks] : tokens) {
    if (is_adversary(path)) continue;  // strategies split internally
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent ||
          strategies.count(toks[i].text) == 0) {
        continue;
      }
      // Construction shapes: `X(args)`, `X var(args)` and
      // `make_unique<X>(args)`.
      std::size_t open = 0;
      if (tok_is(toks, i + 1, "(")) {
        open = i + 1;
      } else if (tok_is(toks, i + 1, ">") && tok_is(toks, i + 2, "(")) {
        open = i + 2;
      } else if (i + 2 < toks.size() &&
                 toks[i + 1].kind == Tok::Kind::kIdent &&
                 textscan::cpp_keywords().count(toks[i + 1].text) == 0 &&
                 tok_is(toks, i + 2, "(")) {
        open = i + 2;
      } else {
        continue;
      }
      const std::size_t close = match_bracket(toks, open);
      if (close >= toks.size()) continue;
      for (std::size_t k = open + 1; k < close; ++k) {
        if (toks[k].kind != Tok::Kind::kIdent || toks[k].text != "Rng" ||
            !tok_is(toks, k + 1, "(")) {
          continue;
        }
        const std::size_t rng_close = match_bracket(toks, k + 1);
        if (rng_close >= close) break;
        bool derived = false;
        for (std::size_t m = k + 2; m < rng_close; ++m) {
          if (toks[m].kind == Tok::Kind::kIdent &&
              std::find(spec_.rng_derivations.begin(),
                        spec_.rng_derivations.end(),
                        toks[m].text) != spec_.rng_derivations.end()) {
            derived = true;
            break;
          }
        }
        if (!derived) {
          result.findings.push_back(
              {path, toks[k].line, "RNO605",
               "adversary '" + toks[i].text +
                   "' constructed with an inline Rng seed that is not "
                   "derived via split/trial_rng/derive_seed; the adversary "
                   "must draw from its own dedicated stream"});
        }
        k = rng_close;
      }
    }
  }

  // --- RNO610: spec drift ---------------------------------------------------
  if (!partial_) {
    for (const EntrypointSpec& ep : spec_.entrypoints) {
      const textscan::SpecEntry entry{spec_path_, ep.line, "RNO610",
                                      "entrypoint '" + ep.name + "'"};
      const std::vector<Tok>* ep_toks = textscan::resolve_spec_file(
          tokens, ep.file, entry, &result.findings);
      if (ep_toks == nullptr) continue;
      const std::vector<Tok>& toks = *ep_toks;
      bool iface = false;
      bool method = false;
      bool view = ep.view.empty();
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != Tok::Kind::kIdent) continue;
        if (toks[i].text == ep.interface && i > 0 &&
            (toks[i - 1].text == "class" || toks[i - 1].text == "struct")) {
          iface = true;
        }
        if (toks[i].text == ep.method && tok_is(toks, i + 1, "(")) {
          method = true;
        }
        if (!view && toks[i].text == ep.view) view = true;
      }
      if (!iface) {
        result.findings.push_back(
            {spec_path_, ep.line, "RNO610",
             "entrypoint '" + ep.name + "': interface " + ep.interface +
                 " not found in " + ep.file});
      } else if (!method) {
        result.findings.push_back(
            {spec_path_, ep.line, "RNO610",
             "entrypoint '" + ep.name + "': method " + ep.method +
                 " not found in " + ep.file});
      } else if (!view) {
        result.findings.push_back(
            {spec_path_, ep.line, "RNO610",
             "entrypoint '" + ep.name + "': view type " + ep.view +
                 " not referenced in " + ep.file +
                 " — the entry point no longer consumes the declared view"});
      }
    }
    for (const ServeSiteSpec& site : spec_.servesites) {
      const textscan::SpecEntry entry{spec_path_, site.line, "RNO610",
                                      "servesite '" + site.name + "'"};
      const std::vector<Tok>* toks = textscan::resolve_spec_file(
          tokens, site.file, entry, &result.findings);
      if (toks == nullptr) continue;
      const std::vector<FunctionBody> fns = textscan::resolve_spec_function(
          *toks, site.file, site.function, entry, result.findings);
      if (fns.empty()) continue;
      bool serves = false;
      for (const FunctionBody& fn : fns) {
        for (std::size_t k = fn.body_begin; k < fn.body_end && !serves; ++k) {
          if ((*toks)[k].kind == Tok::Kind::kIdent &&
              (*toks)[k].text == "serve_stale") {
            serves = true;
          }
        }
      }
      if (!serves) {
        result.findings.push_back(
            {spec_path_, site.line, "RNO610",
             "servesite '" + site.name + "': " + site.function + " in " +
                 site.file + " no longer calls serve_stale (dead site; "
                 "delete or update the entry)"});
      }
    }
    if (!spec_.buffer_file.empty()) {
      auto it = tokens.find(spec_.buffer_file);
      if (it == tokens.end()) {
        result.findings.push_back(
            {spec_path_, spec_.snapshot_line, "RNO610",
             "[snapshot] buffer_file " + spec_.buffer_file +
                 " is not in the tree"});
      } else if (!spec_.horizon_method.empty()) {
        bool found = false;
        for (const Tok& tok : it->second) {
          if (tok.kind == Tok::Kind::kIdent &&
              tok.text == spec_.horizon_method) {
            found = true;
            break;
          }
        }
        if (!found) {
          result.findings.push_back(
              {spec_path_, spec_.snapshot_line, "RNO610",
               "[snapshot] retention pin broken: " + spec_.buffer_file +
                   " no longer declares " + spec_.horizon_method +
                   " (capacity-only eviction can starve t-late views)"});
        }
      }
    }
  }

  textscan::apply_suppressions(files_, spec_.allow, module().suppressions,
                               std::exchange(result.findings, {}), result);
  result.tallies = std::to_string(result.adversary_files) +
                   " adversary files, " +
                   std::to_string(result.servesites_checked) +
                   " serve sites, ";
  return result;
}

}  // namespace reconfnet::oraclecheck
