#include "racecheck.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

namespace reconfnet::racecheck {

using textscan::FunctionBody;
using textscan::Tok;
using textscan::bracket_is_close;
using textscan::bracket_is_open;
using textscan::find_functions;
using textscan::match_bracket;
using textscan::skip_angles;
using textscan::tok_is;
using textscan::tokenize;

// ---------------------------------------------------------------------------
// Rule catalogue

const textscan::Module& module() {
  static const textscan::Module kModule = {
      .name = "racecheck",
      .default_spec = "tools/racecheck/concurrency.toml",
      .rules = {
          {"RNR501",
           "parallel lambda mutates shared state outside declared slots"},
          {"RNR502",
           "Rng in a parallel region without split/derive from the shard "
           "index"},
          {"RNR503",
           "container mutation indexed by something other than the shard "
           "index"},
          {"RNR504",
           "completion-order merge (push into shared container) in a parallel "
           "body"},
          {"RNR505",
           "ad-hoc synchronization primitive in src/ outside src/runtime/"},
          {"RNR506", "parallel body reaches known-global mutable state"},
          {"RNR510", "concurrency.toml drift (undeclared site or dead region)"},
          {"RNR590", "malformed reconfnet-racecheck suppression"},
      },
      .suppressions = {"reconfnet-racecheck:", "RNR", "RNR590",
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

bool fill_spawn(const textscan::TomlSection& section, SpawnSpec& spawn,
                std::string& error) {
  spawn.line = section.line;
  for (const auto& entry : section.entries) {
    if (entry.is_array) {
      error = "line " + std::to_string(entry.line) + ": spawn key " +
              entry.key + " needs a string";
      return false;
    }
    if (entry.key == "name") {
      spawn.name = entry.scalar;
    } else if (entry.key == "callee") {
      spawn.callee = entry.scalar;
    } else if (entry.key == "receiver") {
      spawn.receiver = entry.scalar;
    } else if (entry.key == "arg") {
      spawn.arg = entry.scalar;
    } else if (entry.key == "index") {
      if (entry.scalar != "param" && entry.scalar != "context" &&
          entry.scalar != "none") {
        error = "line " + std::to_string(entry.line) +
                ": spawn index must be param, context or none";
        return false;
      }
      spawn.index = entry.scalar;
    } else if (entry.key == "note") {
      // Documentation only.
    } else {
      error = "line " + std::to_string(entry.line) + ": unknown spawn key " +
              entry.key;
      return false;
    }
  }
  if (spawn.name.empty() || spawn.callee.empty()) {
    error = "line " + std::to_string(section.line) +
            ": [[spawn]] needs name and callee";
    return false;
  }
  if (spawn.arg != "last") {
    for (const char c : spawn.arg) {
      if (c < '0' || c > '9') {
        error = "line " + std::to_string(section.line) +
                ": spawn arg must be \"last\" or a 1-based position";
        return false;
      }
    }
  }
  return true;
}

bool fill_region(const textscan::TomlSection& section, RegionSpec& region,
                 std::string& error) {
  region.line = section.line;
  for (const auto& entry : section.entries) {
    const bool want_array = entry.key == "slots" || entry.key == "readonly";
    if (want_array != entry.is_array) {
      error = "line " + std::to_string(entry.line) + ": region key " +
              entry.key + (want_array ? " needs an array" : " needs a string");
      return false;
    }
    if (entry.key == "name") {
      region.name = entry.scalar;
    } else if (entry.key == "file") {
      region.file = entry.scalar;
    } else if (entry.key == "file_prefix") {
      region.file_prefix = entry.scalar;
    } else if (entry.key == "function") {
      region.function = entry.scalar;
    } else if (entry.key == "spawn") {
      region.spawn = entry.scalar;
    } else if (entry.key == "slots") {
      region.slots = entry.items;
    } else if (entry.key == "readonly") {
      region.readonly = entry.items;
    } else if (entry.key == "note") {
      // Documentation only.
    } else {
      error = "line " + std::to_string(entry.line) + ": unknown region key " +
              entry.key;
      return false;
    }
  }
  const bool exact = !region.file.empty();
  const bool prefix = !region.file_prefix.empty();
  if (exact == prefix) {
    error = "line " + std::to_string(section.line) +
            ": [[region]] needs exactly one of file or file_prefix";
    return false;
  }
  if (exact && region.function.empty()) {
    error = "line " + std::to_string(section.line) +
            ": [[region]] with file needs function";
    return false;
  }
  if (region.spawn.empty()) {
    error = "line " + std::to_string(section.line) + ": [[region]] needs spawn";
    return false;
  }
  if (region.name.empty()) {
    region.name = exact ? region.file + ":" + region.function
                        : region.file_prefix;
  }
  return true;
}

}  // namespace

bool parse_spec(const std::string& text, Spec& spec, std::string& error) {
  spec = Spec{};
  std::vector<textscan::TomlSection> sections;
  if (!textscan::parse_toml_subset(text, sections, error)) return false;
  for (const auto& section : sections) {
    if (section.is_array_of_tables && section.name == "spawn") {
      SpawnSpec spawn;
      if (!fill_spawn(section, spawn, error)) return false;
      spec.spawns.push_back(std::move(spawn));
    } else if (section.is_array_of_tables && section.name == "region") {
      RegionSpec region;
      if (!fill_region(section, region, error)) return false;
      spec.regions.push_back(std::move(region));
    } else if (!section.is_array_of_tables && section.name == "shared") {
      for (const auto& entry : section.entries) {
        if (entry.key == "readonly_types" && entry.is_array) {
          spec.readonly_types = entry.items;
        } else if (entry.key == "globals" && entry.is_array) {
          spec.globals = entry.items;
        } else {
          error = "line " + std::to_string(entry.line) +
                  ": unknown shared key " + entry.key;
          return false;
        }
      }
    } else if (!textscan::parse_shared_section(section, &spec.roots,
                                               spec.allow, error)) {
      return false;
    }
  }
  std::set<std::string> spawn_names;
  for (const SpawnSpec& spawn : spec.spawns) {
    if (!spawn_names.insert(spawn.name).second) {
      error = "line " + std::to_string(spawn.line) + ": duplicate spawn " +
              spawn.name;
      return false;
    }
  }
  for (const RegionSpec& region : spec.regions) {
    if (spawn_names.count(region.spawn) == 0) {
      error = "line " + std::to_string(region.line) + ": region " +
              region.name + " references unknown spawn " + region.spawn;
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Token-level helpers

namespace {

/// Punctuation that can precede a free-function call (never a definition).
bool call_preceder_punct(const std::string& t) {
  return t == ";" || t == "{" || t == "}" || t == "(" || t == "," ||
         t == "=" || t == "?" || t == ":" || t == "::" || t == "!";
}

/// Member functions whose call mutates the receiver.
const std::set<std::string>& mutating_members() {
  static const std::set<std::string> kMut = {
      "push_back", "emplace_back", "emplace",     "emplace_front",
      "insert",    "try_emplace",  "insert_or_assign",
      "erase",     "clear",        "resize",      "reserve",
      "assign",    "push",         "pop",         "pop_back",
      "pop_front", "push_front",   "append",      "store",
      "fetch_add", "fetch_sub",    "exchange",    "swap",
      "merge",     "splice",       "next",        "shuffle"};
  return kMut;
}

/// The completion-order subset of the mutators: growing a shared container
/// from a parallel body makes the result depend on task finish order.
const std::set<std::string>& push_like_members() {
  static const std::set<std::string> kPush = {
      "push_back", "emplace_back", "emplace", "emplace_front",
      "insert",    "push",         "push_front", "append", "merge",
      "splice"};
  return kPush;
}

/// std:: synchronization primitives flagged by RNR505.
const std::set<std::string>& sync_idents() {
  static const std::set<std::string> kSync = {
      "mutex",
      "recursive_mutex",
      "timed_mutex",
      "shared_mutex",
      "atomic",
      "atomic_flag",
      "atomic_bool",
      "atomic_int",
      "atomic_uint64_t",
      "atomic_size_t",
      "condition_variable",
      "condition_variable_any",
      "thread",
      "jthread",
      "lock_guard",
      "unique_lock",
      "scoped_lock",
      "shared_lock",
      "future",
      "promise",
      "packaged_task",
      "counting_semaphore",
      "binary_semaphore",
      "barrier",
      "latch",
      "call_once",
      "once_flag"};
  return kSync;
}

/// Type-ish keywords that may precede a local declaration's name.
const std::set<std::string>& type_keywords() {
  static const std::set<std::string> kTypes = {
      "auto", "bool", "char", "const", "double", "float",
      "int",  "long", "short", "signed", "unsigned"};
  return kTypes;
}

/// Sanctioned identifiers in an Rng initializer: these derive the stream
/// from the region's master seed and shard index (the PR-2 discipline).
const std::set<std::string>& rng_derivations() {
  static const std::set<std::string> kDerive = {"split", "trial_rng",
                                                "derive_seed"};
  return kDerive;
}

/// One parsed parallel callable (a lambda, inline or name-resolved).
struct Lambda {
  bool valid = false;
  bool default_ref = false;  // [&...]
  bool default_val = false;  // [=...]
  std::set<std::string> ref_captures;  // explicit &name captures
  std::set<std::string> val_captures;  // explicit by-value / init captures
  std::vector<std::pair<std::string, std::string>> params;  // (type, name)
  std::size_t body_begin = 0;
  std::size_t body_end = 0;
  std::size_t line = 0;
};

/// Parses the lambda whose `[` capture list starts at token `open`.
Lambda parse_lambda(const std::vector<Tok>& toks, std::size_t open) {
  Lambda out;
  if (!tok_is(toks, open, "[")) return out;
  const std::size_t cap_close = match_bracket(toks, open);
  if (cap_close >= toks.size()) return out;
  out.line = toks[open].line;

  // Capture list: split on top-level commas.
  std::size_t item = open + 1;
  while (item < cap_close) {
    std::size_t end = item;
    int depth = 0;
    while (end < cap_close) {
      if (bracket_is_open(toks[end].text)) ++depth;
      if (bracket_is_close(toks[end].text)) --depth;
      if (depth == 0 && toks[end].text == ",") break;
      ++end;
    }
    if (item < end) {
      if (toks[item].text == "&" && end == item + 1) {
        out.default_ref = true;
      } else if (toks[item].text == "=" && end == item + 1) {
        out.default_val = true;
      } else if (toks[item].text == "&" && end > item + 1) {
        out.ref_captures.insert(toks[item + 1].text);
      } else if (toks[item].text == "this" ||
                 (toks[item].text == "*" && tok_is(toks, item + 1, "this"))) {
        // Member state reached through `this` shows up as non-local idents;
        // the mutation analysis handles it like any other shared capture.
      } else if (toks[item].kind == Tok::Kind::kIdent) {
        // `name` or `name = expr` init capture: a by-value copy, local to
        // the closure.
        out.val_captures.insert(toks[item].text);
      }
    }
    item = end + 1;
  }

  // Parameter list (optional).
  std::size_t j = cap_close + 1;
  if (tok_is(toks, j, "(")) {
    const std::size_t params_close = match_bracket(toks, j);
    if (params_close >= toks.size()) return out;
    std::size_t p = j + 1;
    while (p < params_close) {
      std::size_t end = p;
      int depth = 0;
      while (end < params_close) {
        const std::string& t = toks[end].text;
        if (bracket_is_open(t) || t == "<") ++depth;
        if (bracket_is_close(t) || t == ">") --depth;
        if (depth == 0 && t == ",") break;
        ++end;
      }
      // The parameter name is the last identifier of the slice; its type is
      // every identifier before it joined (enough for `TrialContext&` and
      // `std::size_t` checks).
      std::string type;
      std::string name;
      for (std::size_t k = p; k < end; ++k) {
        if (toks[k].kind != Tok::Kind::kIdent) continue;
        if (!name.empty()) type += (type.empty() ? "" : " ") + name;
        name = toks[k].text;
      }
      if (!name.empty()) out.params.emplace_back(type, name);
      p = end + 1;
    }
    j = params_close + 1;
  }

  // Skip specifiers (mutable, noexcept, trailing return) to the body brace.
  while (j < toks.size() && toks[j].text != "{") {
    if (toks[j].text == "(") {
      j = match_bracket(toks, j);
      if (j >= toks.size()) return out;
      ++j;
      continue;
    }
    if (toks[j].text == "<") {
      j = skip_angles(toks, j);
      continue;
    }
    if (toks[j].text == ";" || toks[j].text == ")" || toks[j].text == ",") {
      return out;  // not a lambda body after all (e.g. array subscript)
    }
    ++j;
  }
  if (j >= toks.size()) return out;
  const std::size_t body_close = match_bracket(toks, j);
  if (body_close >= toks.size()) return out;
  out.body_begin = j + 1;
  out.body_end = body_close;
  out.valid = true;
  return out;
}

/// One mutation of a (possibly member-accessed, possibly indexed) lvalue
/// chain found in a body. `base` is the chain's first identifier.
struct Mutation {
  std::string base;
  std::size_t line = 0;
  bool indexed = false;
  std::vector<std::string> index_toks;  // tokens of the FIRST subscript
  std::string member;                   // mutating member call, if that form
};

/// Walks the lvalue chains of [begin, end) and returns every mutation:
/// assignment, compound assignment, increment/decrement, or a mutating
/// member call, applied to a chain rooted at an identifier.
std::vector<Mutation> collect_mutations(const std::vector<Tok>& toks,
                                        std::size_t begin, std::size_t end) {
  std::vector<Mutation> out;
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != Tok::Kind::kIdent) continue;
    if (textscan::cpp_keywords().count(toks[i].text) != 0) continue;
    // Chain roots only: skip members of another base.
    if (i > begin && (toks[i - 1].text == "." || toks[i - 1].text == "->" ||
                      toks[i - 1].text == "::")) {
      continue;
    }
    Mutation m;
    m.base = toks[i].text;
    m.line = toks[i].line;

    // Prefix increment/decrement: `++x` tokenizes as `+ + x`.
    if (i >= begin + 2 && toks[i - 1].text == toks[i - 2].text &&
        (toks[i - 1].text == "+" || toks[i - 1].text == "-")) {
      out.push_back(std::move(m));
      continue;
    }

    // Walk the member/subscript chain.
    std::size_t j = i + 1;
    bool terminal_call = false;
    while (j < end) {
      if ((toks[j].text == "." || toks[j].text == "->") &&
          j + 1 < end && toks[j + 1].kind == Tok::Kind::kIdent) {
        const std::string& member = toks[j + 1].text;
        if (tok_is(toks, j + 2, "(")) {
          if (mutating_members().count(member) != 0) {
            m.member = member;
            terminal_call = true;
          }
          break;  // any member call ends the lvalue chain
        }
        j += 2;
        continue;
      }
      if (toks[j].text == "[") {
        const std::size_t close = match_bracket(toks, j);
        if (close >= end) break;
        if (!m.indexed) {
          m.indexed = true;
          for (std::size_t k = j + 1; k < close; ++k)
            m.index_toks.push_back(toks[k].text);
        }
        j = close + 1;
        continue;
      }
      break;
    }

    if (terminal_call) {
      out.push_back(std::move(m));
      continue;
    }
    if (j >= end) continue;

    // Suffix operators. The tokenizer splits compound operators, so `+=` is
    // `+` `=` and `++` is `+` `+`; comparisons (`==`, `<=`, `>=`, `!=`)
    // never have a bare `=` or doubled `+`/`-` in these shapes.
    const std::string& a = toks[j].text;
    const std::string b = j + 1 < end ? toks[j + 1].text : "";
    const bool plain_assign = a == "=" && b != "=";
    const bool compound_assign =
        (a == "+" || a == "-" || a == "*" || a == "/" || a == "%" ||
         a == "&" || a == "|" || a == "^") &&
        b == "=" && !(a == "&" && j + 2 < end && toks[j + 2].text == "=");
    const bool incdec = (a == "+" && b == "+") || (a == "-" && b == "-");
    if (plain_assign || compound_assign || incdec) {
      // `a && b = ...` cannot appear; `&&` would be two `&` tokens and is
      // excluded by the compound check above.
      out.push_back(std::move(m));
    }
  }
  return out;
}

/// Collects names declared inside [begin, end): parameters are added by the
/// caller; this finds `Type name =`, `Type name{...}`, `Type& name :`, and
/// `Type name(...);` declaration shapes.
std::set<std::string> collect_locals(const std::vector<Tok>& toks,
                                     std::size_t begin, std::size_t end) {
  std::set<std::string> locals;
  for (std::size_t i = begin + 1; i < end; ++i) {
    if (toks[i].kind != Tok::Kind::kIdent) continue;
    if (textscan::cpp_keywords().count(toks[i].text) != 0) continue;
    const Tok& prev = toks[i - 1];
    bool type_before = false;
    if (prev.kind == Tok::Kind::kIdent) {
      type_before = textscan::cpp_keywords().count(prev.text) == 0 ||
                    type_keywords().count(prev.text) != 0;
    } else {
      type_before = prev.text == "&" || prev.text == "*" || prev.text == ">";
    }
    if (!type_before) continue;
    if (i + 1 >= end) continue;
    const std::string& next = toks[i + 1].text;
    if (next == "=" && !tok_is(toks, i + 2, "=")) {
      locals.insert(toks[i].text);
    } else if (next == "{" || next == ";" || next == ":") {
      locals.insert(toks[i].text);
    } else if (next == "(") {
      // `Type name(args);` — require a type before the name (an identifier
      // or a template close) to avoid swallowing calls like `helper(x)`.
      if (prev.text == ">" ||
          (prev.kind == Tok::Kind::kIdent &&
           textscan::non_definition_preceders().count(prev.text) == 0)) {
        locals.insert(toks[i].text);
      }
    } else if ((next == ")" || next == ",") &&
               (prev.text == "&" || prev.text == "*")) {
      // `Type& name)` / `Type* name,` — a reference/pointer parameter of a
      // nested lambda (or helper callback) declared inside the body.
      locals.insert(toks[i].text);
    }
  }
  return locals;
}

/// File-wide scan for variables declared with type `type_name` (handles
/// `Type x`, `ns::Type x`, `Type& x`, `const Type* x`).
std::set<std::string> vars_of_type(const std::vector<Tok>& toks,
                                   const std::string& type_name) {
  std::set<std::string> vars;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::Kind::kIdent || toks[i].text != type_name)
      continue;
    std::size_t j = i + 1;
    if (tok_is(toks, j, "<")) j = skip_angles(toks, j);
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j < toks.size() && toks[j].kind == Tok::Kind::kIdent &&
        textscan::cpp_keywords().count(toks[j].text) == 0) {
      vars.insert(toks[j].text);
    }
  }
  return vars;
}

/// One parallel dispatch site found in a file.
struct Site {
  std::size_t spawn_index = 0;   ///< index into spec.spawns
  std::size_t callee_tok = 0;    ///< token index of the callee identifier
  std::size_t args_open = 0;     ///< token index of the call's `(`
  std::size_t args_close = 0;    ///< its matching `)`
  std::size_t line = 0;
};

/// Finds every dispatch site of `spawn` in `toks`. Free-callee sites are
/// call-shaped occurrences of the callee; member sites additionally require
/// the receiver object to be declared with the spawn's receiver type
/// somewhere in the file.
std::vector<Site> find_sites(const std::vector<Tok>& toks,
                             const SpawnSpec& spawn, std::size_t spawn_index) {
  std::vector<Site> out;
  const std::set<std::string> receivers =
      spawn.receiver.empty() ? std::set<std::string>{}
                             : vars_of_type(toks, spawn.receiver);
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::Kind::kIdent || toks[i].text != spawn.callee)
      continue;
    if (!tok_is(toks, i + 1, "(")) continue;
    const Tok& prev = toks[i - 1];
    bool is_site = false;
    if (spawn.receiver.empty()) {
      if (prev.kind == Tok::Kind::kIdent) {
        is_site = textscan::non_definition_preceders().count(prev.text) != 0;
      } else {
        is_site = call_preceder_punct(prev.text);
      }
    } else {
      if ((prev.text == "." || prev.text == "->") && i >= 2 &&
          toks[i - 2].kind == Tok::Kind::kIdent) {
        is_site = receivers.count(toks[i - 2].text) != 0;
      }
    }
    if (!is_site) continue;
    const std::size_t close = match_bracket(toks, i + 1);
    if (close >= toks.size()) continue;
    out.push_back({spawn_index, i, i + 1, close, toks[i].line});
  }
  return out;
}

/// Returns the token range [begin, end) of the call argument selected by
/// `spawn.arg` ("last" or a 1-based position); {0, 0} when out of range.
std::pair<std::size_t, std::size_t> select_arg(const std::vector<Tok>& toks,
                                               const Site& site,
                                               const SpawnSpec& spawn) {
  std::vector<std::pair<std::size_t, std::size_t>> args;
  std::size_t start = site.args_open + 1;
  int depth = 0;
  for (std::size_t i = start; i <= site.args_close; ++i) {
    const bool at_end = i == site.args_close;
    if (!at_end && bracket_is_open(toks[i].text)) ++depth;
    if (!at_end && bracket_is_close(toks[i].text)) --depth;
    if (at_end || (depth == 0 && toks[i].text == ",")) {
      if (start < i) args.emplace_back(start, i);
      start = i + 1;
    }
  }
  if (args.empty()) return {0, 0};
  if (spawn.arg == "last") return args.back();
  const std::size_t pos = static_cast<std::size_t>(std::stoul(spawn.arg));
  if (pos == 0 || pos > args.size()) return {0, 0};
  return args[pos - 1];
}

}  // namespace

// ---------------------------------------------------------------------------
// Driver

Driver::Driver(Spec spec, std::string spec_path)
    : spec_(std::move(spec)), spec_path_(std::move(spec_path)) {}

namespace {

/// Per-site analysis context: the lambda, its locals, the shard-index
/// vocabulary, and the sanctioned names.
struct BodyAnalysis {
  const std::vector<Tok>& toks;
  const std::string& path;
  const Spec& spec;
  const RegionSpec* region;  // nullptr only for fixtures without regions
  const SpawnSpec& spawn;
  std::vector<Finding>& findings;

  Lambda lambda;
  std::set<std::string> locals;
  std::string index_name;    // shard-index parameter name ("" when none)
  std::string context_name;  // TrialContext parameter name ("" when none)
  std::set<std::string> rng_vars;  // file-wide Rng-typed variable names

  void flag(std::size_t line, const char* rule, std::string message) {
    findings.push_back({path, line, rule, std::move(message)});
  }

  [[nodiscard]] bool in_slots(const std::string& name) const {
    return region != nullptr &&
           std::find(region->slots.begin(), region->slots.end(), name) !=
               region->slots.end();
  }

  [[nodiscard]] bool in_readonly(const std::string& name) const {
    return region != nullptr &&
           std::find(region->readonly.begin(), region->readonly.end(),
                     name) != region->readonly.end();
  }

  /// True when the subscript tokens are exactly the shard index: `i` in
  /// param mode, `ctx . index` (or `i`) in context mode.
  [[nodiscard]] bool is_shard_index(
      const std::vector<std::string>& index_toks) const {
    if (!index_name.empty() && index_toks.size() == 1 &&
        index_toks[0] == index_name) {
      return true;
    }
    if (!context_name.empty() && index_toks.size() == 3 &&
        index_toks[0] == context_name && index_toks[1] == "." &&
        index_toks[2] == "index") {
      return true;
    }
    return false;
  }

  void prepare() {
    locals = collect_locals(toks, lambda.body_begin, lambda.body_end);
    for (const auto& [type, name] : lambda.params) {
      locals.insert(name);
      if (type.find("TrialContext") != std::string::npos) context_name = name;
    }
    locals.insert(lambda.val_captures.begin(), lambda.val_captures.end());
    if (spawn.index == "param" && !lambda.params.empty() &&
        context_name.empty()) {
      index_name = lambda.params.back().second;
    }
    for (const std::string& type : {std::string("Rng")}) {
      const std::set<std::string> vars = vars_of_type(toks, type);
      rng_vars.insert(vars.begin(), vars.end());
    }
  }

  // RNR501 (capture-discipline leg): explicit by-reference captures must be
  // declared slots, readonly names, or instances of a read-only type.
  void check_ref_captures() {
    for (const std::string& name : lambda.ref_captures) {
      if (in_slots(name) || in_readonly(name)) continue;
      bool readonly_typed = false;
      for (const std::string& type : spec.readonly_types) {
        const std::set<std::string> vars = vars_of_type(toks, type);
        if (vars.count(name) != 0) {
          readonly_typed = true;
          break;
        }
      }
      if (readonly_typed) continue;
      flag(lambda.line, "RNR501",
           "parallel lambda captures '" + name +
               "' by reference; declare it as a region slot or readonly "
               "name in concurrency.toml (or capture by value)");
    }
  }

  // RNR501/503/504 (mutation legs).
  void check_mutations() {
    const std::vector<Mutation> mutations =
        collect_mutations(toks, lambda.body_begin, lambda.body_end);
    for (const Mutation& m : mutations) {
      if (locals.count(m.base) != 0) continue;
      if (m.indexed) {
        if (is_shard_index(m.index_toks)) {
          if (in_slots(m.base)) continue;
          flag(m.line, "RNR501",
               "parallel body writes '" + m.base +
                   "[" + index_display() +
                   "]' but it is not a declared per-shard slot; add it to "
                   "the region's slots in concurrency.toml");
        } else {
          flag(m.line, "RNR503",
               "parallel body mutates '" + m.base +
                   "' indexed by something other than the shard index; "
                   "results become schedule-dependent");
        }
        continue;
      }
      if (!m.member.empty() && push_like_members().count(m.member) != 0) {
        flag(m.line, "RNR504",
             "parallel body grows shared '" + m.base + "' via ." + m.member +
                 "(); completion-order merge — write to a preallocated "
                 "slot[index] instead");
        continue;
      }
      flag(m.line, "RNR501",
           "parallel body mutates captured '" + m.base +
               "'; not a declared per-shard slot (shared-state write "
               "races and breaks --jobs determinism)");
    }
  }

  [[nodiscard]] std::string index_display() const {
    if (!index_name.empty()) return index_name;
    if (!context_name.empty()) return context_name + ".index";
    return "index";
  }

  // RNR502 — Rng hygiene inside the body.
  void check_rng() {
    // Leg 1: shared Rng objects used inside the body.
    for (std::size_t i = lambda.body_begin; i < lambda.body_end; ++i) {
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      if (rng_vars.count(toks[i].text) == 0) continue;
      if (locals.count(toks[i].text) != 0) continue;
      if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))
        continue;  // member of a local chain (e.g. ctx.rng)
      if (tok_is(toks, i + 1, "("))
        continue;  // a call — Rng objects are not callable, so this name is
                   // a derivation helper like trial_rng(master, i)
      flag(toks[i].line, "RNR502",
           "parallel body uses shared Rng '" + toks[i].text +
               "'; derive a per-shard stream via Rng(master).split(" +
               index_display() + ") instead");
    }
    // Leg 2: Rng constructed in the body without an index derivation.
    for (std::size_t i = lambda.body_begin; i + 1 < lambda.body_end; ++i) {
      if (toks[i].kind != Tok::Kind::kIdent || toks[i].text != "Rng") continue;
      std::size_t j = i + 1;
      if (toks[j].kind != Tok::Kind::kIdent) continue;  // need `Rng name(...)`
      const std::string& name = toks[j].text;
      ++j;
      if (j >= lambda.body_end ||
          (toks[j].text != "(" && toks[j].text != "{")) {
        continue;
      }
      const std::size_t close = match_bracket(toks, j);
      if (close >= lambda.body_end) continue;
      bool derived = false;
      for (std::size_t k = j + 1; k < close && !derived; ++k) {
        if (toks[k].kind != Tok::Kind::kIdent) continue;
        const std::string& t = toks[k].text;
        derived = rng_derivations().count(t) != 0 ||
                  (!index_name.empty() && t == index_name) ||
                  (!context_name.empty() && t == context_name);
      }
      if (!derived) {
        flag(toks[i].line, "RNR502",
             "Rng '" + name +
                 "' constructed in a parallel body without a split/" +
                 "derive_seed derivation from the shard index; every shard "
                 "draws the same stream (or a nondeterministic one)");
      }
    }
  }

  // RNR506 — global mutable state reached from the body (one-level walk).
  void check_globals() {
    for (std::size_t i = lambda.body_begin; i < lambda.body_end; ++i) {
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      if (i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->"))
        continue;
      const std::string& t = toks[i].text;
      if (is_global(t) && locals.count(t) == 0) {
        flag(toks[i].line, "RNR506",
             "parallel body touches global mutable state '" + t + "'");
        continue;
      }
      // One-level call-graph walk: a same-file callee whose body touches a
      // global taints the call site.
      if (!tok_is(toks, i + 1, "(")) continue;
      if (locals.count(t) != 0) continue;
      if (textscan::cpp_keywords().count(t) != 0) continue;
      if (lambda.val_captures.count(t) != 0) continue;
      const std::string global = textscan::callee_reach(
          toks, i, [this](const std::string& name) { return is_global(name); });
      if (!global.empty()) {
        flag(toks[i].line, "RNR506",
             "parallel body calls '" + t +
                 "' which touches global mutable state '" + global +
                 "' (one-level call-graph walk)");
      }
    }
  }

  [[nodiscard]] bool is_global(const std::string& name) const {
    if (name.size() > 2 && name.compare(0, 2, "g_") == 0) return true;
    return std::find(spec.globals.begin(), spec.globals.end(), name) !=
           spec.globals.end();
  }

  void run_all() {
    prepare();
    check_ref_captures();
    check_mutations();
    check_rng();
    check_globals();
  }
};

}  // namespace

Driver::Result Driver::run() {
  Result result;
  result.files_checked = files_.size();

  const textscan::TokenMap tokens = textscan::tokenize_files(files_);

  // RNR505 — ad-hoc synchronization in src/ outside src/runtime/. Requires
  // the `std ::` qualifier so include lines and domain identifiers that
  // happen to collide with primitive names do not trip the rule.
  for (const auto& [path, toks] : tokens) {
    if (!textscan::starts_with(path, "src/")) continue;
    if (textscan::starts_with(path, "src/runtime/")) continue;
    for (std::size_t i = 2; i < toks.size(); ++i) {
      if (toks[i].kind != Tok::Kind::kIdent) continue;
      if (sync_idents().count(toks[i].text) == 0) continue;
      if (toks[i - 1].text != "::" || toks[i - 2].text != "std") continue;
      result.findings.push_back(
          {path, toks[i].line, "RNR505",
           "std::" + toks[i].text +
               " outside src/runtime/: ad-hoc synchronization breaks the "
               "determinism model (suppress with a reason if this is a "
               "sanctioned cross-thread counter)"});
    }
  }

  // Dispatch-site discovery and per-site analysis.
  std::vector<bool> region_hit(spec_.regions.size(), false);
  for (const auto& [path, toks] : tokens) {
    for (std::size_t si = 0; si < spec_.spawns.size(); ++si) {
      const SpawnSpec& spawn = spec_.spawns[si];
      const std::vector<Site> sites = find_sites(toks, spawn, si);
      if (sites.empty()) continue;

      // Precompute the exact-region function ranges for this file + spawn.
      struct RegionRange {
        std::size_t region_index;
        std::size_t begin;
        std::size_t end;
      };
      std::vector<RegionRange> ranges;
      for (std::size_t ri = 0; ri < spec_.regions.size(); ++ri) {
        const RegionSpec& region = spec_.regions[ri];
        if (region.spawn != spawn.name || region.file != path) continue;
        for (const FunctionBody& fn : find_functions(toks, region.function)) {
          ranges.push_back({ri, fn.body_begin, fn.body_end});
        }
      }

      for (const Site& site : sites) {
        ++result.sites_checked;
        const RegionSpec* covering = nullptr;
        for (const RegionRange& range : ranges) {
          if (range.begin <= site.callee_tok && site.callee_tok < range.end) {
            covering = &spec_.regions[range.region_index];
            region_hit[range.region_index] = true;
            break;
          }
        }
        if (covering == nullptr) {
          for (std::size_t ri = 0; ri < spec_.regions.size(); ++ri) {
            const RegionSpec& region = spec_.regions[ri];
            if (region.spawn != spawn.name || region.file_prefix.empty())
              continue;
            if (textscan::starts_with(path, region.file_prefix.c_str())) {
              covering = &region;
              region_hit[ri] = true;
              break;
            }
          }
        }
        if (covering == nullptr) {
          result.findings.push_back(
              {path, site.line, "RNR510",
               "undeclared parallel dispatch site: " + spawn.callee +
                   "(...) of spawn family '" + spawn.name +
                   "' has no [[region]] entry in concurrency.toml"});
          continue;
        }

        // Locate the parallel callable: an inline lambda or a name resolved
        // to a preceding `auto name = [...]` definition.
        const auto [arg_begin, arg_end] = select_arg(toks, site, spawn);
        if (arg_begin == 0 && arg_end == 0) continue;
        std::size_t lambda_tok = toks.size();
        std::size_t name_tok = toks.size();
        if (toks[arg_begin].text == "[") {
          lambda_tok = arg_begin;
        } else if (arg_end == arg_begin + 1 &&
                   toks[arg_begin].kind == Tok::Kind::kIdent) {
          name_tok = arg_begin;
        } else if (arg_end == arg_begin + 6 && toks[arg_begin].text == "std" &&
                   tok_is(toks, arg_begin + 1, "::") &&
                   tok_is(toks, arg_begin + 2, "move") &&
                   tok_is(toks, arg_begin + 3, "(") &&
                   toks[arg_begin + 4].kind == Tok::Kind::kIdent) {
          name_tok = arg_begin + 4;  // std::move(task)
        }
        if (name_tok < toks.size()) {
          const std::string& name = toks[name_tok].text;
          for (std::size_t k = site.callee_tok; k >= 3; --k) {
            if (toks[k].text == "[" && toks[k - 1].text == "=" &&
                toks[k - 2].text == name && toks[k - 3].text == "auto") {
              lambda_tok = k;
              break;
            }
          }
        }
        if (lambda_tok >= toks.size()) continue;  // forwarded callable etc.
        Lambda lambda = parse_lambda(toks, lambda_tok);
        if (!lambda.valid) continue;
        ++result.lambdas_checked;

        BodyAnalysis analysis{toks,     path,   spec_,
                              covering, spawn,  result.findings,
                              std::move(lambda), {}, "", "", {}};
        analysis.run_all();
      }
    }
  }

  // RNR510 — dead regions (full runs only): a declared region whose file is
  // missing, whose function is gone, or which no site hit this run.
  if (!partial_) {
    for (std::size_t ri = 0; ri < spec_.regions.size(); ++ri) {
      const RegionSpec& region = spec_.regions[ri];
      if (region_hit[ri]) continue;
      if (!region.file.empty()) {
        const textscan::SpecEntry entry{spec_path_, region.line, "RNR510",
                                        "region '" + region.name + "'"};
        const std::vector<Tok>* toks = textscan::resolve_spec_file(
            tokens, region.file, entry, &result.findings);
        if (toks == nullptr ||
            textscan::resolve_spec_function(*toks, region.file,
                                            region.function, entry,
                                            result.findings)
                .empty()) {
          continue;
        }
      }
      result.findings.push_back(
          {spec_path_, region.line, "RNR510",
           "region '" + region.name +
               "' matched no dispatch site this run; the code drifted from "
               "the spec (delete or update the entry)"});
    }
  }

  textscan::apply_suppressions(files_, spec_.allow, module().suppressions,
                               std::exchange(result.findings, {}), result);
  result.tallies = std::to_string(result.sites_checked) +
                   " dispatch sites, " +
                   std::to_string(result.lambdas_checked) +
                   " parallel lambdas, ";
  return result;
}

}  // namespace reconfnet::racecheck
