#include "lint.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace reconfnet::lint {

using textscan::Tok;
using textscan::cpp_keywords;
using textscan::dirname_of;
using textscan::skip_angles;
using textscan::starts_with;
using textscan::tok_is;
using textscan::tokenize;
using textscan::trim;

// ---------------------------------------------------------------------------
// Rule catalogue

const textscan::Module& module() {
  static const textscan::Module kModule = {
      .name = "lint",
      .default_spec = "tools/lint/layers.toml",
      .rules = {
          {"RNL001", "std::random_device (nondeterministic seed source)"},
          {"RNL002", "rand()/srand()/*rand48 (hidden global-state RNG)"},
          {"RNL003", "wall-clock input (std::chrono, time(), ...)"},
          {"RNL004", "__DATE__/__TIME__/__TIMESTAMP__ build stamps"},
          {"RNL005", "iteration over an unordered container"},
          {"RNL006", "pointer values used as keys"},
          {"RNL101", "include of a higher layer"},
          {"RNL102", "file or include not covered by the layer map"},
          {"RNL201", "header without #pragma once"},
          {"RNL202", "using namespace in a header"},
          {"RNL203", "NOLINT without a rule name and reason"},
          {"RNL204", "malformed reconfnet-lint suppression"},
      },
      // Path allowances are carve-outs, not suppressions: not counted.
      .suppressions = {"reconfnet-lint:", "RNL", "RNL204",
                       /*count_carve_outs=*/false},
      .load = [](const std::string& spec_text, const std::string&,
                 std::string& error) -> std::unique_ptr<textscan::Checker> {
        Config config;
        if (!parse_config(spec_text, config, error)) return nullptr;
        return std::make_unique<Driver>(std::move(config));
      },
  };
  return kModule;
}

// ---------------------------------------------------------------------------
// Config parsing (layers.toml subset)

bool parse_config(const std::string& text, Config& config,
                  std::string& error) {
  config = Config{};
  std::vector<textscan::TomlSection> sections;
  if (!textscan::parse_toml_subset(text, sections, error)) return false;
  for (const auto& section : sections) {
    if (section.is_array_of_tables && section.name == "layer") {
      config.layers.push_back({});
      for (const auto& entry : section.entries) {
        if (entry.key == "name" && !entry.is_array) {
          config.layers.back().name = entry.scalar;
        } else if (entry.key == "paths" && entry.is_array) {
          config.layers.back().paths = entry.items;
        } else {
          error = "line " + std::to_string(entry.line) +
                  ": bad layer key " + entry.key +
                  " (want name = \"...\" or paths = [...])";
          return false;
        }
      }
    } else if (!textscan::parse_shared_section(section, nullptr, config.allow,
                                               error)) {
      return false;
    }
  }
  for (const Layer& layer : config.layers) {
    if (layer.name.empty() || layer.paths.empty()) {
      error = "every [[layer]] needs a name and a non-empty paths array";
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Driver

struct Driver::Decls {
  /// Names whose declared type (or return type) is an unordered container.
  std::set<std::string> unordered;
};

Driver::Driver(Config config) : config_(std::move(config)) {}

std::vector<std::string> Driver::roots() const {
  return {"src/", "bench/", "tools/", "examples/", "tests/"};
}

void Driver::add_file(const std::string& path, const std::string& content) {
  Checker::add_file(path, content);
  known_paths_.insert(path);
}

void Driver::add_known_path(const std::string& path) {
  known_paths_.insert(path);
}

int Driver::layer_of(const std::string& path) const {
  int best = -1;
  std::size_t best_len = 0;
  for (std::size_t li = 0; li < config_.layers.size(); ++li) {
    for (const std::string& prefix : config_.layers[li].paths) {
      if (prefix.size() >= best_len && starts_with(path, prefix.c_str())) {
        best = static_cast<int>(li);
        best_len = prefix.size();
      }
    }
  }
  return best;
}

std::string Driver::resolve_include(const std::string& includer,
                                    const std::string& target) const {
  const std::string dir = dirname_of(includer);
  const std::string candidates[] = {target, "src/" + target,
                                    dir.empty() ? target : dir + "/" + target};
  for (const std::string& candidate : candidates) {
    const std::string normalized = textscan::lexical_normalize(candidate);
    if (known_paths_.count(normalized) != 0) return normalized;
  }
  return {};
}

namespace {

/// Collects names declared (or returned) as unordered containers, plus
/// aliases of unordered types, from one file's token stream. Also collects
/// names the file itself declares with an ORDERED std container: those
/// shadow same-named unordered declarations inherited from included headers
/// (a local `std::vector<...> blocked` is not the header's
/// `unordered_set<...>& blocked` parameter).
void collect_unordered_decls(const std::vector<Tok>& toks,
                             std::set<std::string>& names,
                             std::set<std::string>& ordered_names) {
  static const std::set<std::string> kOrderedContainers = {
      "vector", "array", "deque", "list",     "set",
      "map",    "span",  "multiset", "multimap"};
  std::set<std::string> aliases;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind == Tok::Kind::kIdent &&
        kOrderedContainers.count(toks[i].text) != 0 &&
        tok_is(toks, i + 1, "<") && i >= 2 && toks[i - 1].text == "::" &&
        toks[i - 2].text == "std") {
      std::size_t j = skip_angles(toks, i + 1);
      while (j < toks.size() &&
             (toks[j].text == "&" || toks[j].text == "*" ||
              toks[j].text == "const"))
        ++j;
      if (j < toks.size() && toks[j].kind == Tok::Kind::kIdent &&
          cpp_keywords().count(toks[j].text) == 0) {
        ordered_names.insert(toks[j].text);
      }
      continue;
    }
    const bool is_unordered_token = toks[i].kind == Tok::Kind::kIdent &&
                                    (toks[i].text == "unordered_map" ||
                                     toks[i].text == "unordered_set" ||
                                     toks[i].text == "unordered_multimap" ||
                                     toks[i].text == "unordered_multiset");
    if (!is_unordered_token || !tok_is(toks, i + 1, "<")) continue;
    // `using Alias = std::unordered_map<...>`
    if (i >= 3 && toks[i - 1].text == "::" && toks[i - 2].text == "std" &&
        toks[i - 3].text == "=" && i >= 5 && toks[i - 5].text == "using") {
      aliases.insert(toks[i - 4].text);
    }
    std::size_t j = skip_angles(toks, i + 1);
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const"))
      ++j;
    if (j < toks.size() && toks[j].kind == Tok::Kind::kIdent &&
        cpp_keywords().count(toks[j].text) == 0) {
      names.insert(toks[j].text);
    }
  }
  if (aliases.empty()) return;
  // Second pass: `Alias name` declarations.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == Tok::Kind::kIdent && aliases.count(toks[i].text) != 0 &&
        toks[i + 1].kind == Tok::Kind::kIdent &&
        cpp_keywords().count(toks[i + 1].text) == 0 &&
        (i == 0 || toks[i - 1].text != "::")) {
      names.insert(toks[i + 1].text);
    }
  }
}

}  // namespace

void Driver::check_determinism(const SourceFile& file, const Decls& decls,
                               std::vector<Finding>& out) const {
  const std::vector<Tok> toks = tokenize(file.code);

  static const std::set<std::string> kGlobalRngCalls = {
      "rand", "srand", "rand_r", "drand48", "lrand48", "mrand48", "srand48"};
  static const std::set<std::string> kClockCalls = {
      "time",          "clock",      "gettimeofday", "clock_gettime",
      "timespec_get",  "localtime",  "localtime_r",  "gmtime",
      "gmtime_r",      "ftime"};
  static const std::set<std::string> kTimeHeaders = {"chrono", "ctime",
                                                     "time.h", "sys/time.h"};
  static const std::set<std::string> kStampMacros = {"__DATE__", "__TIME__",
                                                     "__TIMESTAMP__"};

  // `#include <chrono>` and friends count as RNL003: pulling in a clock is
  // the first step of using one, and the allowlist covers the legit sites.
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string line = trim(file.code[li]);
    if (!starts_with(line, "#include")) continue;
    const std::size_t open = line.find('<');
    const std::size_t close = line.find('>');
    if (open == std::string::npos || close == std::string::npos) continue;
    const std::string header = line.substr(open + 1, close - open - 1);
    if (kTimeHeaders.count(header) != 0) {
      out.push_back({file.path, li + 1, "RNL003",
                     "#include <" + header +
                         "> pulls in wall-clock time; experiment results "
                         "must be pure in (seed, trial index)"});
    }
  }

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Tok& tok = toks[i];
    if (tok.kind != Tok::Kind::kIdent) continue;
    const bool member_access =
        i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
    if (tok.text == "random_device") {
      out.push_back({file.path, tok.line, "RNL001",
                     "std::random_device is a nondeterministic seed source; "
                     "derive seeds from support::Rng::split instead"});
    } else if (!member_access && kGlobalRngCalls.count(tok.text) != 0 &&
               tok_is(toks, i + 1, "(")) {
      out.push_back({file.path, tok.line, "RNL002",
                     tok.text +
                         "() uses hidden global RNG state; use the "
                         "support::Rng passed down from the trial seed"});
    } else if (tok.text == "chrono") {
      out.push_back({file.path, tok.line, "RNL003",
                     "std::chrono reads the wall clock; results must not "
                     "depend on time (allowlist covers timing metadata)"});
    } else if (!member_access && kClockCalls.count(tok.text) != 0 &&
               tok_is(toks, i + 1, "(")) {
      out.push_back({file.path, tok.line, "RNL003",
                     tok.text + "() reads the wall clock; results must be "
                                "pure in (seed, trial index)"});
    } else if (kStampMacros.count(tok.text) != 0) {
      out.push_back({file.path, tok.line, "RNL004",
                     tok.text + " bakes the build time into the binary; "
                                "outputs would differ across rebuilds"});
    }
  }

  // RNL006: pointer values as keys or sort inputs.
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::Kind::kIdent) continue;
    if ((toks[i].text == "hash" || toks[i].text == "less" ||
         toks[i].text == "greater") &&
        tok_is(toks, i + 1, "<")) {
      const std::size_t end = skip_angles(toks, i + 1);
      if (end >= 2 && end <= toks.size() && toks[end - 2].text == "*") {
        out.push_back({file.path, toks[i].line, "RNL006",
                       "std::" + toks[i].text +
                           "<T*> keys on pointer values, which vary run to "
                           "run; key on a stable id instead"});
      }
    }
    if ((toks[i].text == "reinterpret_cast" || toks[i].text == "bit_cast") &&
        tok_is(toks, i + 1, "<")) {
      const std::size_t end = skip_angles(toks, i + 1);
      for (std::size_t j = i + 2; j + 1 < end; ++j) {
        if (toks[j].text == "uintptr_t" || toks[j].text == "intptr_t") {
          out.push_back({file.path, toks[i].line, "RNL006",
                         "casting a pointer to an integer leaks the "
                         "allocator's addresses into values; use a stable id"});
          break;
        }
      }
    }
  }

  // RNL005: iteration over unordered containers.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].text != "for" || !tok_is(toks, i + 1, "(")) continue;
    int depth = 0;
    std::size_t close = i + 1;
    for (; close < toks.size(); ++close) {
      if (toks[close].text == "(") ++depth;
      if (toks[close].text == ")" && --depth == 0) break;
    }
    if (close >= toks.size()) continue;
    // Range-for: top-level `:` between the parens.
    std::size_t colon = 0;
    int inner = 0;
    for (std::size_t j = i + 2; j < close; ++j) {
      if (toks[j].text == "(" || toks[j].text == "[" || toks[j].text == "{")
        ++inner;
      if (toks[j].text == ")" || toks[j].text == "]" || toks[j].text == "}")
        --inner;
      if (inner == 0 && toks[j].text == ":") {
        colon = j;
        break;
      }
    }
    std::string culprit;
    if (colon != 0) {
      // Identify the ranged expression's final name: `x`, `a.b`, `f()`,
      // `a.f()` all reduce to the identifier before the optional call parens.
      std::size_t last = close - 1;
      if (toks[last].text == ")") {
        int call = 0;
        while (last > colon) {
          if (toks[last].text == ")") ++call;
          if (toks[last].text == "(" && --call == 0) break;
          --last;
        }
        --last;  // token before '('
      }
      if (last > colon && toks[last].kind == Tok::Kind::kIdent &&
          decls.unordered.count(toks[last].text) != 0) {
        culprit = toks[last].text;
      }
      for (std::size_t j = colon + 1; j < close && culprit.empty(); ++j) {
        if (toks[j].text == "unordered_map" ||
            toks[j].text == "unordered_set") {
          culprit = toks[j].text + " temporary";
        }
      }
    } else {
      // Iterator loop: `for (auto it = x.begin(); ...`.
      for (std::size_t j = i + 2; j + 2 < close; ++j) {
        if (toks[j].text == ";") break;
        if ((toks[j + 2].text == "begin" || toks[j + 2].text == "cbegin") &&
            toks[j + 1].text == "." && toks[j].kind == Tok::Kind::kIdent &&
            decls.unordered.count(toks[j].text) != 0) {
          culprit = toks[j].text;
          break;
        }
      }
    }
    if (!culprit.empty()) {
      out.push_back(
          {file.path, toks[i].line, "RNL005",
           "iterating unordered container '" + culprit +
               "' — bucket order is implementation-defined and can leak "
               "into results; extract keys and sort, or justify with a "
               "suppression"});
    }
  }
}

void Driver::check_layering(const SourceFile& file,
                            std::vector<Finding>& out) const {
  const int my_layer = layer_of(file.path);
  if (my_layer < 0) {
    out.push_back({file.path, 1, "RNL102",
                   "file is not covered by the layer map "
                   "(tools/lint/layers.toml); add it to a layer"});
    return;
  }
  for (const auto& [line, target] : file.includes) {
    const std::string resolved = resolve_include(file.path, target);
    if (resolved.empty()) {
      out.push_back({file.path, line, "RNL102",
                     "quoted include \"" + target +
                         "\" does not resolve to a first-party file; use "
                         "<...> for system headers"});
      continue;
    }
    const int inc_layer = layer_of(resolved);
    if (inc_layer < 0) continue;  // reported on the file itself
    if (inc_layer > my_layer) {
      out.push_back(
          {file.path, line, "RNL101",
           "include of \"" + target + "\" reaches up the layer DAG (" +
               config_.layers[static_cast<std::size_t>(my_layer)].name +
               " -> " +
               config_.layers[static_cast<std::size_t>(inc_layer)].name +
               "); only same-or-lower layers may be included"});
    }
  }
}

void Driver::check_hygiene(const SourceFile& file,
                           std::vector<Finding>& out) const {
  if (file.is_header()) {
    bool has_pragma = false;
    for (const std::string& line : file.code) {
      if (trim(line) == "#pragma once") {
        has_pragma = true;
        break;
      }
    }
    if (!has_pragma) {
      out.push_back({file.path, 1, "RNL201",
                     "header is missing #pragma once"});
    }
    const std::vector<Tok> toks = tokenize(file.code);
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
      if (toks[i].text == "using" && toks[i + 1].text == "namespace") {
        out.push_back({file.path, toks[i].line, "RNL202",
                       "using namespace in a header leaks into every "
                       "includer; qualify names instead"});
      }
    }
  }
  for (std::size_t li = 0; li < file.comments.size(); ++li) {
    const std::string& comment = file.comments[li];
    std::size_t pos = comment.find("NOLINT");
    if (pos == std::string::npos) continue;
    const std::string rest = comment.substr(pos);
    bool ok = false;
    if (starts_with(rest, "NOLINTEND")) {
      ok = true;  // closing marker inherits the BEGIN's justification
    } else {
      const std::size_t open = rest.find('(');
      const std::size_t close = rest.find(')');
      if (open != std::string::npos && close != std::string::npos &&
          close > open + 1) {
        const std::string reason = trim(rest.substr(close + 1));
        ok = !reason.empty();
      }
    }
    if (!ok) {
      out.push_back({file.path, li + 1, "RNL203",
                     "NOLINT needs a rule name and a reason, e.g. "
                     "// NOLINT(check-name): why it is safe here"});
    }
  }
}

Driver::Result Driver::run() {
  Result result;

  // Per-file unordered-name tables, then merge along the include graph so a
  // .cpp sees the members declared in the headers it pulls in. A name the
  // file itself declares with an ordered container shadows an inherited
  // unordered declaration of the same name.
  std::map<std::string, std::set<std::string>> own_unordered;
  std::map<std::string, std::set<std::string>> own_ordered;
  for (const auto& [path, file] : files_) {
    collect_unordered_decls(tokenize(file.code), own_unordered[path],
                            own_ordered[path]);
  }
  std::map<std::string, Decls> merged;
  for (const auto& [path, file] : files_) {
    std::set<std::string> visited;
    std::vector<std::string> stack = {path};
    Decls decls;
    while (!stack.empty()) {
      const std::string current = stack.back();
      stack.pop_back();
      if (!visited.insert(current).second) continue;
      const auto decl_it = own_unordered.find(current);
      if (decl_it != own_unordered.end()) {
        decls.unordered.insert(decl_it->second.begin(), decl_it->second.end());
      }
      const auto file_it = files_.find(current);
      if (file_it == files_.end()) continue;
      for (const auto& [line, target] : file_it->second.includes) {
        const std::string resolved = resolve_include(current, target);
        if (!resolved.empty()) stack.push_back(resolved);
      }
    }
    for (const std::string& name : own_ordered.at(path)) {
      if (own_unordered.at(path).count(name) == 0) decls.unordered.erase(name);
    }
    merged.emplace(path, std::move(decls));
  }

  std::vector<Finding> raw;
  for (const auto& [path, file] : files_) {
    ++result.files_checked;
    check_determinism(file, merged.at(path), raw);
    check_layering(file, raw);
    check_hygiene(file, raw);
  }
  textscan::apply_suppressions(files_, config_.allow, module().suppressions,
                               std::move(raw), result);
  return result;
}

}  // namespace reconfnet::lint
