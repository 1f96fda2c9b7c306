#include "hotcheck.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

namespace reconfnet::hotcheck {

using textscan::FunctionBody;
using textscan::LoopRange;
using textscan::Tok;
using textscan::bracket_is_close;
using textscan::bracket_is_open;
using textscan::collect_loops;
using textscan::find_functions;
using textscan::match_bracket;
using textscan::skip_angles;
using textscan::tok_is;
using textscan::tokenize;

// ---------------------------------------------------------------------------
// Rule catalogue

const textscan::Module& module() {
  static const textscan::Module kModule = {
      .name = "hotcheck",
      .default_spec = "tools/hotcheck/hotpaths.toml",
      .rules = {
          {"RNH401", "heap allocation in a hot region"},
          {"RNH402", "hot-function parameter takes a container by value"},
          {"RNH403", "std::map/unordered_map operation in a hot function"},
          {"RNH404", "push loop without a prior reserve/resize"},
          {"RNH405", "string formatting in a hot function"},
          {"RNH410", "hotpaths.toml drift (missing file or function)"},
          {"RNH490", "malformed reconfnet-hotcheck suppression"},
      },
      .suppressions = {"reconfnet-hotcheck:", "RNH", "RNH490",
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

bool is_integer(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

bool fill_hotpath(const textscan::TomlSection& section, HotPathSpec& hp,
                  std::string& error) {
  hp.line = section.line;
  for (const auto& entry : section.entries) {
    const bool want_array = entry.key == "functions";
    if (want_array != entry.is_array) {
      error = "line " + std::to_string(entry.line) + ": hotpath key " +
              entry.key + (want_array ? " needs an array" : " needs a string");
      return false;
    }
    if (entry.key == "name") {
      hp.name = entry.scalar;
    } else if (entry.key == "file") {
      hp.file = entry.scalar;
    } else if (entry.key == "functions") {
      hp.functions = entry.items;
    } else if (entry.key == "strict") {
      if (entry.scalar != "true" && entry.scalar != "false") {
        error = "line " + std::to_string(entry.line) +
                ": hotpath strict must be true or false";
        return false;
      }
      hp.strict = entry.scalar == "true";
    } else if (entry.key == "note") {
      // Documentation only.
    } else {
      error = "line " + std::to_string(entry.line) + ": unknown hotpath key " +
              entry.key;
      return false;
    }
  }
  if (hp.file.empty() || hp.functions.empty()) {
    error = "line " + std::to_string(section.line) +
            ": [[hotpath]] needs file and functions";
    return false;
  }
  if (hp.name.empty()) hp.name = hp.file;
  return true;
}

bool fill_budget(const textscan::TomlSection& section, BudgetSpec& budget,
                 std::string& error) {
  budget.line = section.line;
  for (const auto& entry : section.entries) {
    if (entry.is_array) {
      error = "line " + std::to_string(entry.line) + ": budget key " +
              entry.key + " needs a scalar";
      return false;
    }
    if (entry.key == "name") {
      budget.name = entry.scalar;
    } else if (entry.key == "note") {
      // Documentation only.
    } else {
      if (!is_integer(entry.scalar)) {
        error = "line " + std::to_string(entry.line) + ": budget key " +
                entry.key + " needs a non-negative integer";
        return false;
      }
      budget.values[entry.key] = entry.scalar;
    }
  }
  if (budget.name.empty() || budget.values.empty()) {
    error = "line " + std::to_string(section.line) +
            ": [[budget]] needs a name and at least one integer key";
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
    if (section.is_array_of_tables && section.name == "hotpath") {
      HotPathSpec hp;
      if (!fill_hotpath(section, hp, error)) return false;
      spec.hotpaths.push_back(std::move(hp));
    } else if (section.is_array_of_tables && section.name == "budget") {
      BudgetSpec budget;
      if (!fill_budget(section, budget, error)) return false;
      spec.budgets.push_back(std::move(budget));
    } else if (!textscan::parse_shared_section(section, &spec.roots,
                                               spec.allow, error)) {
      return false;
    }
  }
  std::set<std::string> seen;
  for (const BudgetSpec& budget : spec.budgets) {
    if (!seen.insert(budget.name).second) {
      error = "line " + std::to_string(budget.line) + ": duplicate budget " +
              budget.name;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Token-level helpers

namespace {

/// Containers whose construction allocates (or will on first growth) and
/// whose by-value copy is O(payload).
const std::set<std::string>& allocating_containers() {
  static const std::set<std::string> kContainers = {
      "vector",        "string",
      "basic_string",  "deque",
      "list",          "forward_list",
      "map",           "multimap",
      "set",           "multiset",
      "unordered_map", "unordered_multimap",
      "unordered_set", "unordered_multiset",
      "stringstream",  "ostringstream",
      "istringstream", "function"};
  return kContainers;
}

/// Node-based associative containers: every lookup is a hash + chain walk or
/// a tree descent — the per-message cost RNH403 exists to flag.
const std::set<std::string>& map_types() {
  static const std::set<std::string> kMaps = {
      "map", "multimap", "unordered_map", "unordered_multimap"};
  return kMaps;
}

const std::set<std::string>& map_ops() {
  static const std::set<std::string> kOps = {
      "find", "at", "count", "contains", "emplace", "try_emplace",
      "insert", "insert_or_assign", "erase"};
  return kOps;
}

const std::set<std::string>& format_idents() {
  static const std::set<std::string> kFormat = {
      "to_string", "snprintf", "sprintf", "ostringstream", "stringstream"};
  return kFormat;
}

/// True when any of the `count` tokens before `i`, scanning back to the
/// previous statement boundary, equals `word`.
bool preceded_by(const std::vector<Tok>& toks, std::size_t i,
                 const char* word) {
  for (std::size_t back = 0; back < 6 && i > back; ++back) {
    const Tok& t = toks[i - 1 - back];
    if (t.text == ";" || t.text == "{" || t.text == "}") return false;
    if (t.text == word) return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver

Driver::Driver(Spec spec, std::string spec_path)
    : spec_(std::move(spec)), spec_path_(std::move(spec_path)) {}

namespace {

struct HotFileAnalysis {
  const std::vector<Tok>& toks;
  const std::string& path;
  std::vector<Finding>& findings;

  /// Names of variables (locals, members, parameters) of map type anywhere
  /// in the file — collected file-wide so member maps declared in the class
  /// body are visible inside hot member functions.
  std::set<std::string> map_vars;

  /// Scans `source` (the hot file itself, or a sibling header where member
  /// maps are declared) for map-typed variable declarations.
  void collect_map_vars(const std::vector<Tok>& source) {
    for (std::size_t i = 0; i + 1 < source.size(); ++i) {
      if (source[i].kind != Tok::Kind::kIdent) continue;
      if (map_types().count(source[i].text) == 0) continue;
      if (!tok_is(source, i + 1, "<")) continue;
      std::size_t j = skip_angles(source, i + 1);
      while (j < source.size() &&
             (source[j].text == "&" || source[j].text == "*" ||
              source[j].text == "const")) {
        ++j;
      }
      if (j < source.size() && source[j].kind == Tok::Kind::kIdent &&
          textscan::cpp_keywords().count(source[j].text) == 0) {
        map_vars.insert(source[j].text);
      }
    }
  }

  void flag(std::size_t line, const char* rule, std::string message) {
    findings.push_back({path, line, rule, std::move(message)});
  }

  // RNH402 — containers passed by value through the parameter list.
  void check_params(const FunctionBody& fn) {
    std::size_t start = fn.params_begin;
    std::size_t i = fn.params_begin;
    int depth = 0;  // brackets and template angles both nest commas
    while (i <= fn.params_end) {
      const bool at_end = i == fn.params_end;
      if (!at_end && (bracket_is_open(toks[i].text) || toks[i].text == "<")) {
        ++depth;
      }
      if (!at_end && (bracket_is_close(toks[i].text) || toks[i].text == ">")) {
        --depth;
      }
      const bool boundary =
          at_end || (depth == 0 && toks[i].text == ",");
      if (boundary) {
        check_one_param(fn, start, i);
        start = i + 1;
      }
      ++i;
    }
  }

  void check_one_param(const FunctionBody& fn, std::size_t begin,
                       std::size_t end) {
    std::size_t container_tok = toks.size();
    int depth = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::string& t = toks[i].text;
      if (t == "<") ++depth;
      if (t == ">") --depth;
      if (depth == 0 && (t == "&" || t == "*")) return;  // by reference
      if (depth == 0 && t == "=") break;  // default argument expression
      if (container_tok == toks.size() &&
          toks[i].kind == Tok::Kind::kIdent &&
          allocating_containers().count(t) != 0) {
        container_tok = i;
      }
    }
    if (container_tok == toks.size()) return;
    flag(toks[container_tok].line, "RNH402",
         "hot function '" + fn.name + "' takes a " +
             toks[container_tok].text +
             " parameter by value; pass by (const) reference");
  }

  // RNH401 — heap allocation inside [begin, end).
  void check_allocations(const FunctionBody& fn, std::size_t begin,
                         std::size_t end, const char* where) {
    for (std::size_t i = begin; i < end; ++i) {
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      const std::string& t = toks[i].text;
      if (t == "new") {
        flag(toks[i].line, "RNH401",
             std::string("operator new in ") + where + " of hot function '" +
                 fn.name + "'");
        continue;
      }
      if (t == "make_unique" || t == "make_shared") {
        flag(toks[i].line, "RNH401",
             t + " in " + where + " of hot function '" + fn.name + "'");
        continue;
      }
      if (allocating_containers().count(t) == 0) continue;
      // Require the std:: qualifier or a template argument list so member
      // names that shadow container names do not trip the rule.
      const bool qualified = i >= 2 && toks[i - 1].text == "::" &&
                             toks[i - 2].text == "std";
      if (!qualified && !tok_is(toks, i + 1, "<")) continue;
      if (preceded_by(toks, i, "static")) continue;  // one-time init
      std::size_t j = i + 1;
      if (tok_is(toks, j, "<")) j = skip_angles(toks, j);
      if (j >= end) continue;
      if (toks[j].text == "&" || toks[j].text == "*" ||
          toks[j].text == "::") {
        continue;  // reference/pointer declaration or nested-name use
      }
      const bool is_decl =
          toks[j].kind == Tok::Kind::kIdent &&
          (tok_is(toks, j + 1, ";") || tok_is(toks, j + 1, "=") ||
           tok_is(toks, j + 1, "{") || tok_is(toks, j + 1, "(") ||
           tok_is(toks, j + 1, ","));
      const bool is_temporary = toks[j].text == "{" || toks[j].text == "(";
      if (!is_decl && !is_temporary) continue;
      flag(toks[i].line, "RNH401",
           "constructs a " + t + " in " + where + " of hot function '" +
               fn.name + "'; hoist it out and reuse the buffer");
    }
  }

  // RNH403 — map operations anywhere in the hot body.
  void check_map_ops(const FunctionBody& fn) {
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      if (map_vars.count(toks[i].text) == 0) continue;
      if (tok_is(toks, i + 1, "[")) {
        flag(toks[i].line, "RNH403",
             "operator[] on map '" + toks[i].text + "' in hot function '" +
                 fn.name + "'; use an index-addressed flat structure");
        continue;
      }
      if (tok_is(toks, i + 1, ".") && i + 2 < fn.body_end &&
          toks[i + 2].kind == Tok::Kind::kIdent &&
          map_ops().count(toks[i + 2].text) != 0 &&
          tok_is(toks, i + 3, "(")) {
        flag(toks[i].line, "RNH403",
             "map '" + toks[i].text + "'." + toks[i + 2].text +
                 "() in hot function '" + fn.name +
                 "'; use an index-addressed flat structure");
      }
    }
  }

  // RNH404 — push loops with no prior reserve/resize in the same function.
  void check_push_loops(const FunctionBody& fn,
                        const std::vector<LoopRange>& loops) {
    for (const LoopRange& loop : loops) {
      std::set<std::string> flagged;
      for (std::size_t i = loop.begin; i + 3 < loop.end; ++i) {
        if (toks[i].kind != Tok::Kind::kIdent) continue;
        if (!tok_is(toks, i + 1, ".")) continue;
        const std::string& op = toks[i + 2].text;
        if (op != "push_back" && op != "emplace_back") continue;
        if (!tok_is(toks, i + 3, "(")) continue;
        const std::string& var = toks[i].text;
        if (flagged.count(var) != 0) continue;
        if (has_capacity_call(fn, i, var)) continue;
        flagged.insert(var);
        flag(toks[i].line, "RNH404",
             "loop grows '" + var + "' via " + op +
                 " with no prior reserve()/resize() in hot function '" +
                 fn.name + "'");
      }
    }
  }

  /// True when `var` has a reserve()/resize() call anywhere in the function
  /// body before token index `before` (the push site — a reserve inside an
  /// outer loop still sizes the vector the inner loop grows).
  bool has_capacity_call(const FunctionBody& fn, std::size_t before,
                         const std::string& var) {
    for (std::size_t i = fn.body_begin; i + 3 < before; ++i) {
      if (toks[i].kind != Tok::Kind::kIdent || toks[i].text != var) continue;
      if (!tok_is(toks, i + 1, ".")) continue;
      const std::string& op = toks[i + 2].text;
      if ((op == "reserve" || op == "resize") && tok_is(toks, i + 3, "(")) {
        return true;
      }
    }
    return false;
  }

  // RNH405 — string formatting anywhere in the hot body.
  void check_formatting(const FunctionBody& fn) {
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      const std::string& t = toks[i].text;
      const bool std_format = t == "format" && i >= 2 &&
                              toks[i - 1].text == "::" &&
                              toks[i - 2].text == "std";
      if (format_idents().count(t) == 0 && !std_format) continue;
      flag(toks[i].line, "RNH405",
           "string formatting (" + t + ") in hot function '" + fn.name +
               "'; format outside the hot path");
    }
  }
};

}  // namespace

Driver::Result Driver::run() {
  Result result;
  result.files_checked = files_.size();

  // Tokenize every registered file once; hot files are analysed from this.
  const textscan::TokenMap tokens = textscan::tokenize_files(files_);

  for (const HotPathSpec& hp : spec_.hotpaths) {
    const textscan::SpecEntry entry{spec_path_, hp.line, "RNH410",
                                    "hotpath '" + hp.name + "'"};
    const std::vector<Tok>* hot = textscan::resolve_spec_file(
        tokens, hp.file, entry, partial_ ? nullptr : &result.findings);
    if (hot == nullptr) continue;
    const std::vector<Tok>& toks = *hot;
    HotFileAnalysis analysis{toks, hp.file, result.findings, {}};
    analysis.collect_map_vars(toks);
    // Member maps are declared in the class body: when the hot file is a
    // .cpp, pull declarations from its sibling header too.
    const std::size_t dot = hp.file.rfind('.');
    if (dot != std::string::npos && hp.file.substr(dot) == ".cpp") {
      for (const char* ext : {".hpp", ".h"}) {
        auto sibling = tokens.find(hp.file.substr(0, dot) + ext);
        if (sibling != tokens.end()) {
          analysis.collect_map_vars(sibling->second);
        }
      }
    }
    for (const std::string& fn_name : hp.functions) {
      for (const FunctionBody& fn : textscan::resolve_spec_function(
               toks, hp.file, fn_name, entry, result.findings)) {
        ++result.hot_functions_checked;
        const std::vector<LoopRange> loops =
            collect_loops(toks, fn.body_begin, fn.body_end);
        analysis.check_params(fn);
        if (hp.strict) {
          analysis.check_allocations(fn, fn.body_begin, fn.body_end, "body");
        } else {
          for (const LoopRange& loop : loops) {
            analysis.check_allocations(fn, loop.begin, loop.end, "loop");
          }
        }
        analysis.check_map_ops(fn);
        analysis.check_push_loops(fn, loops);
        analysis.check_formatting(fn);
      }
    }
  }

  textscan::apply_suppressions(files_, spec_.allow, module().suppressions,
                               std::exchange(result.findings, {}), result);
  result.tallies =
      std::to_string(result.hot_functions_checked) + " hot functions, ";
  return result;
}

}  // namespace reconfnet::hotcheck
