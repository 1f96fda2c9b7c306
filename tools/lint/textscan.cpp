#include "textscan.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>
#include <tuple>

namespace reconfnet::textscan {

// ---------------------------------------------------------------------------
// Findings

void sort_and_dedupe(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return std::tie(a.file, a.line, a.rule) ==
                                      std::tie(b.file, b.line, b.rule);
                             }),
                 findings.end());
}

// ---------------------------------------------------------------------------
// Small string helpers

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

std::string trim(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}

std::string dirname_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

bool matches_any_prefix(const std::string& path,
                        const std::vector<std::string>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&path](const std::string& prefix) {
                       return starts_with(path, prefix.c_str());
                     });
}

std::string lexical_normalize(const std::string& path) {
  std::vector<std::string> parts;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t slash = path.find('/', begin);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    const std::string part = path.substr(begin, end - begin);
    if (part == ".." && !parts.empty() && parts.back() != "..") {
      parts.pop_back();
    } else if (!part.empty() && part != ".") {
      parts.push_back(part);
    }
    if (slash == std::string::npos) break;
    begin = slash + 1;
  }
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += '/';
    out += part;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Token stream

std::vector<Tok> tokenize(const std::vector<std::string>& code) {
  std::vector<Tok> toks;
  for (std::size_t li = 0; li < code.size(); ++li) {
    const std::string& s = code[li];
    std::size_t i = 0;
    while (i < s.size()) {
      const char c = s[i];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        ++i;
        continue;
      }
      if (is_ident_start(c)) {
        std::size_t j = i + 1;
        while (j < s.size() && is_ident_char(s[j])) ++j;
        toks.push_back({Tok::Kind::kIdent, s.substr(i, j - i), li + 1});
        i = j;
        continue;
      }
      // Multi-char punctuation we must not split: `::` (so a lone `:` means
      // range-for) and `->` (so a lone `>` means template close).
      if (c == ':' && i + 1 < s.size() && s[i + 1] == ':') {
        toks.push_back({Tok::Kind::kPunct, "::", li + 1});
        i += 2;
        continue;
      }
      if (c == '-' && i + 1 < s.size() && s[i + 1] == '>') {
        toks.push_back({Tok::Kind::kPunct, "->", li + 1});
        i += 2;
        continue;
      }
      toks.push_back({Tok::Kind::kPunct, std::string(1, c), li + 1});
      ++i;
    }
  }
  return toks;
}

bool tok_is(const std::vector<Tok>& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

std::size_t skip_angles(const std::vector<Tok>& t, std::size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (t[i].text == "<") ++depth;
    if (t[i].text == ">" && --depth == 0) return i + 1;
    if (t[i].text == ";") break;  // statement ended: malformed, bail
  }
  return t.size();
}

bool bracket_is_open(const std::string& t) {
  return t == "(" || t == "{" || t == "[";
}
bool bracket_is_close(const std::string& t) {
  return t == ")" || t == "}" || t == "]";
}

std::size_t match_bracket(const std::vector<Tok>& t, std::size_t i) {
  int depth = 0;
  for (; i < t.size(); ++i) {
    if (bracket_is_open(t[i].text)) ++depth;
    if (bracket_is_close(t[i].text) && --depth == 0) return i;
  }
  return t.size();
}

const std::set<std::string>& cpp_keywords() {
  static const std::set<std::string> kKeywords = {
      "alignas",  "alignof",  "auto",      "bool",     "break",    "case",
      "catch",    "char",     "class",     "const",    "constexpr","continue",
      "decltype", "default",  "delete",    "do",       "double",   "else",
      "enum",     "explicit", "extern",    "false",    "float",    "for",
      "friend",   "if",       "inline",    "int",      "long",     "mutable",
      "namespace","new",      "noexcept",  "nullptr",  "operator", "private",
      "protected","public",   "return",    "short",    "signed",   "sizeof",
      "static",   "struct",   "switch",    "template", "this",     "throw",
      "true",     "try",      "typedef",   "typename", "union",    "unsigned",
      "using",    "virtual",  "void",      "volatile", "while"};
  return kKeywords;
}

// ---------------------------------------------------------------------------
// Light function / loop parsing

const std::set<std::string>& non_definition_preceders() {
  static const std::set<std::string> kNot = {
      "if",     "while", "for",   "switch", "return", "new",
      "delete", "throw", "else",  "do",     "case",   "sizeof",
      "goto",   "co_return", "co_await", "co_yield"};
  return kNot;
}

std::vector<FunctionBody> find_functions(const std::vector<Tok>& toks,
                                         const std::string& name) {
  std::vector<FunctionBody> out;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::Kind::kIdent || toks[i].text != name) continue;
    if (!tok_is(toks, i + 1, "(")) continue;
    const Tok& prev = toks[i - 1];
    bool plausible = false;
    if (prev.kind == Tok::Kind::kIdent) {
      plausible = non_definition_preceders().count(prev.text) == 0;
    } else {
      plausible = prev.text == "::" || prev.text == ">" || prev.text == "*" ||
                  prev.text == "&" || prev.text == "~";
    }
    if (!plausible) continue;

    const std::size_t open = i + 1;
    const std::size_t close = match_bracket(toks, open);
    if (close >= toks.size()) continue;

    // Walk from the parameter list to a `{` body through tokens only a
    // definition can carry; anything else means call site or declaration.
    std::size_t j = close + 1;
    bool definition = false;
    while (j < toks.size()) {
      const std::string& t = toks[j].text;
      if (t == "{") {
        definition = true;
        break;
      }
      if (t == "const" || t == "noexcept" || t == "override" || t == "final" ||
          t == "mutable" || t == "&" || t == "&&") {
        ++j;
        continue;
      }
      if (t == "(") {  // noexcept(...) operand
        j = match_bracket(toks, j);
        if (j >= toks.size()) break;
        ++j;
        continue;
      }
      if (t == "->") {  // trailing return type
        ++j;
        while (j < toks.size() && toks[j].text != "{" && toks[j].text != ";") {
          if (toks[j].text == "<") {
            j = skip_angles(toks, j);
            continue;
          }
          ++j;
        }
        continue;
      }
      if (t == ":") {  // constructor initializer list
        ++j;
        while (j < toks.size()) {
          const std::string& u = toks[j].text;
          if (u == "(" || u == "[") {
            j = match_bracket(toks, j);
            if (j >= toks.size()) break;
            ++j;
            continue;
          }
          if (u == "<") {
            j = skip_angles(toks, j);
            continue;
          }
          if (u == "{") {
            // `member{...}` init follows an identifier or `>`; the body
            // brace follows `)`/`}`/`,` instead.
            if (toks[j - 1].kind == Tok::Kind::kIdent ||
                toks[j - 1].text == ">") {
              j = match_bracket(toks, j);
              if (j >= toks.size()) break;
              ++j;
              continue;
            }
            break;
          }
          if (u == ";" || u == "}") break;
          ++j;
        }
        continue;
      }
      break;
    }
    if (!definition || j >= toks.size()) continue;
    const std::size_t body_close = match_bracket(toks, j);
    if (body_close >= toks.size()) continue;
    out.push_back({name, toks[i].line, open + 1, close, j + 1, body_close});
    i = close;  // resume after the parameter list
  }
  return out;
}

TokenMap tokenize_files(const std::map<std::string, SourceFile>& files) {
  TokenMap tokens;
  for (const auto& [path, file] : files) {
    tokens.emplace(path, tokenize(file.code));
  }
  return tokens;
}

const std::vector<Tok>* resolve_spec_file(const TokenMap& tokens,
                                          const std::string& file,
                                          const SpecEntry& entry,
                                          std::vector<Finding>* drift) {
  const auto it = tokens.find(file);
  if (it != tokens.end()) return &it->second;
  if (drift != nullptr) {
    drift->push_back({entry.spec_path, entry.line, entry.rule,
                      entry.label + ": file " + file + " is not in the tree"});
  }
  return nullptr;
}

std::vector<FunctionBody> resolve_spec_function(const std::vector<Tok>& toks,
                                                const std::string& file,
                                                const std::string& function,
                                                const SpecEntry& entry,
                                                std::vector<Finding>& drift) {
  std::vector<FunctionBody> defs = find_functions(toks, function);
  if (defs.empty()) {
    drift.push_back({entry.spec_path, entry.line, entry.rule,
                     entry.label + ": function " + function +
                         " not found in " + file});
  }
  return defs;
}

std::vector<LoopRange> collect_loops(const std::vector<Tok>& toks,
                                     std::size_t begin, std::size_t end) {
  std::vector<LoopRange> loops;
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != Tok::Kind::kIdent) continue;
    if (toks[i].text == "do") {
      if (tok_is(toks, i + 1, "{")) {
        const std::size_t close = match_bracket(toks, i + 1);
        if (close < end) loops.push_back({i, i + 2, close});
      }
      continue;
    }
    if (toks[i].text != "for" && toks[i].text != "while") continue;
    if (!tok_is(toks, i + 1, "(")) continue;
    const std::size_t head_close = match_bracket(toks, i + 1);
    if (head_close >= end) continue;
    std::size_t k = head_close + 1;
    if (tok_is(toks, k, "{")) {
      const std::size_t close = match_bracket(toks, k);
      if (close < end) loops.push_back({i, k + 1, close});
    } else if (tok_is(toks, k, ";")) {
      // do-while trailer or empty loop: nothing to scan.
    } else {
      // Single-statement body: scan to the terminating ';' at depth 0.
      std::size_t j = k;
      int depth = 0;
      while (j < end) {
        if (bracket_is_open(toks[j].text)) ++depth;
        if (bracket_is_close(toks[j].text)) --depth;
        if (depth == 0 && toks[j].text == ";") break;
        ++j;
      }
      if (j < end) loops.push_back({i, k, j});
    }
  }
  return loops;
}

std::string callee_reach(const std::vector<Tok>& toks, std::size_t call,
                         const std::function<bool(const std::string&)>& hit) {
  for (const FunctionBody& def : find_functions(toks, toks[call].text)) {
    if (def.body_begin <= call && call < def.body_end) continue;  // recursion
    for (std::size_t k = def.body_begin; k < def.body_end; ++k) {
      if (toks[k].kind != Tok::Kind::kIdent) continue;
      if (k > 0 && (toks[k - 1].text == "." || toks[k - 1].text == "->"))
        continue;
      if (hit(toks[k].text)) return toks[k].text;
    }
    break;  // first definition is the one-level approximation
  }
  return {};
}

// ---------------------------------------------------------------------------
// Source stripping

bool SourceFile::is_header() const {
  return path.size() > 4 ? (path.ends_with(".hpp") || path.ends_with(".h"))
                         : path.ends_with(".h");
}

SourceFile strip_source(std::string path, const std::string& text) {
  SourceFile out;
  out.path = std::move(path);

  // Capture quoted includes from the raw text first; stripping blanks string
  // contents, which is exactly where the include target lives.
  {
    std::istringstream in(text);
    std::string raw;
    std::size_t lineno = 0;
    bool in_block_comment = false;
    while (std::getline(in, raw)) {
      ++lineno;
      if (in_block_comment) {
        const std::size_t close = raw.find("*/");
        if (close == std::string::npos) continue;
        in_block_comment = false;
        raw = raw.substr(close + 2);
      }
      const std::string line = trim(raw);
      if (starts_with(line, "#include")) {
        const std::size_t open = line.find('"');
        if (open != std::string::npos) {
          const std::size_t close = line.find('"', open + 1);
          if (close != std::string::npos)
            out.includes.emplace_back(lineno,
                                      line.substr(open + 1, close - open - 1));
        }
      }
      // Track block comments that open on this line and stay open.
      std::size_t pos = 0;
      while ((pos = raw.find("/*", pos)) != std::string::npos) {
        const std::size_t line_comment = raw.find("//");
        if (line_comment != std::string::npos && line_comment < pos) break;
        const std::size_t close = raw.find("*/", pos + 2);
        if (close == std::string::npos) {
          in_block_comment = true;
          break;
        }
        pos = close + 2;
      }
    }
  }

  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  } state = State::kCode;
  std::string code_line;
  std::string comment_line;
  std::string raw_delim;  // for raw strings: the `)delim"` terminator
  const std::size_t n = text.size();
  for (std::size_t i = 0; i <= n; ++i) {
    const char c = i < n ? text[i] : '\n';
    if (c == '\n') {
      out.code.push_back(code_line);
      out.comments.push_back(comment_line);
      code_line.clear();
      comment_line.clear();
      if (state == State::kLineComment) state = State::kCode;
      if (i == n) break;
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
          state = State::kBlockComment;
          ++i;
        } else if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
                   (i == 0 || !is_ident_char(text[i - 1]))) {
          std::size_t j = i + 2;
          while (j < n && text[j] != '(' && text[j] != '\n') ++j;
          raw_delim = ")" + text.substr(i + 2, j - i - 2) + "\"";
          code_line += "\"\"";
          state = State::kRawString;
          i = j;  // position at '('
        } else if (c == '"') {
          code_line += '"';
          state = State::kString;
        } else if (c == '\'') {
          code_line += '\'';
          state = State::kChar;
        } else {
          code_line += c;
        }
        break;
      case State::kLineComment:
        comment_line += c;
        break;
      case State::kBlockComment:
        if (c == '*' && i + 1 < n && text[i + 1] == '/') {
          state = State::kCode;
          ++i;
        } else {
          comment_line += c;
        }
        break;
      case State::kString:
        if (c == '\\' && i + 1 < n) {
          ++i;
        } else if (c == '"') {
          code_line += '"';
          state = State::kCode;
        }
        break;
      case State::kChar:
        if (c == '\\' && i + 1 < n) {
          ++i;
        } else if (c == '\'') {
          code_line += '\'';
          state = State::kCode;
        }
        break;
      case State::kRawString:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Suppressions

namespace {

/// Parses `<marker> allow(XYZnnn[, XYZmmm]) reason` out of comment text.
/// Returns false when the marker is present but malformed.
bool parse_allow_comment(const std::string& comment, const std::string& marker,
                         const std::string& rule_prefix,
                         std::set<std::string>& rules) {
  const std::size_t at = comment.find(marker);
  std::size_t i = at + marker.size();
  while (i < comment.size() &&
         std::isspace(static_cast<unsigned char>(comment[i])) != 0)
    ++i;
  if (comment.compare(i, 6, "allow(") != 0) return false;
  i += 6;
  const std::size_t close = comment.find(')', i);
  if (close == std::string::npos) return false;
  std::string inside = comment.substr(i, close - i);
  std::replace(inside.begin(), inside.end(), ',', ' ');
  std::istringstream ids(inside);
  std::string id;
  while (ids >> id) {
    if (id.size() != rule_prefix.size() + 3 ||
        id.compare(0, rule_prefix.size(), rule_prefix) != 0 ||
        !std::all_of(id.begin() +
                         static_cast<std::ptrdiff_t>(rule_prefix.size()),
                     id.end(), [](char c) {
                       return std::isdigit(static_cast<unsigned char>(c)) != 0;
                     })) {
      return false;
    }
    rules.insert(id);
  }
  if (rules.empty()) return false;
  // A suppression without a reason is itself a finding: the reason is what
  // makes the exemption auditable.
  const std::string reason = trim(comment.substr(close + 1));
  return !reason.empty();
}

}  // namespace

LineSuppressions collect_suppressions(const SourceFile& file,
                                      const std::string& marker,
                                      const std::string& rule_prefix) {
  LineSuppressions out;
  for (std::size_t li = 0; li < file.comments.size(); ++li) {
    const std::string& comment = file.comments[li];
    if (comment.find(marker) == std::string::npos) continue;
    std::set<std::string> rules;
    const std::size_t line = li + 1;
    if (!parse_allow_comment(comment, marker, rule_prefix, rules)) {
      out.malformed.push_back(line);
      continue;
    }
    out.allow[line].insert(rules.begin(), rules.end());
    SuppressionComment record;
    record.line = line;
    record.covers.push_back(line);
    record.rules = rules;
    // A comment-only line suppresses the next line that has code on it.
    if (trim(file.code[li]).empty()) {
      std::size_t target = li + 1;
      while (target < file.code.size() && trim(file.code[target]).empty())
        ++target;
      if (target < file.code.size()) {
        out.allow[target + 1].insert(rules.begin(), rules.end());
        record.covers.push_back(target + 1);
      }
    }
    out.comments.push_back(std::move(record));
  }
  return out;
}

std::vector<StaleSuppression> stale_suppressions(
    const std::string& path, const LineSuppressions& sup,
    const std::set<std::pair<std::size_t, std::string>>& used) {
  std::vector<StaleSuppression> out;
  for (const SuppressionComment& comment : sup.comments) {
    for (const std::string& rule : comment.rules) {
      bool hit = false;
      for (const std::size_t line : comment.covers) {
        if (used.count({line, rule}) != 0) {
          hit = true;
          break;
        }
      }
      if (!hit) out.push_back({path, comment.line, rule});
    }
  }
  return out;
}

void apply_suppressions(
    const std::map<std::string, SourceFile>& files,
    const std::map<std::string, std::vector<std::string>>& allow,
    const SuppressionStyle& style, std::vector<Finding> raw, Report& report) {
  std::map<std::string, LineSuppressions> suppressions;
  for (const auto& [path, file] : files) {
    LineSuppressions collected =
        collect_suppressions(file, style.marker, style.rule_prefix);
    for (const std::size_t line : collected.malformed) {
      raw.push_back({path, line, style.malformed_rule,
                     "malformed suppression; expected `" + style.marker +
                         " allow(" + style.rule_prefix + "xxx) reason`"});
    }
    suppressions.emplace(path, std::move(collected));
  }
  std::map<std::string, std::set<std::pair<std::size_t, std::string>>> used;
  for (Finding& finding : raw) {
    const bool malformed = finding.rule == style.malformed_rule;
    const auto carve_out = allow.find(finding.rule);
    if (carve_out != allow.end() &&
        matches_any_prefix(finding.file, carve_out->second)) {
      if (style.count_carve_outs && !malformed) ++report.suppressed;
      report.suppressed_findings.push_back(std::move(finding));
      continue;
    }
    const auto file_it = suppressions.find(finding.file);
    if (!malformed && file_it != suppressions.end()) {
      const auto line_it = file_it->second.allow.find(finding.line);
      if (line_it != file_it->second.allow.end() &&
          line_it->second.count(finding.rule) != 0) {
        ++report.suppressed;
        used[finding.file].insert({finding.line, finding.rule});
        report.suppressed_findings.push_back(std::move(finding));
        continue;
      }
    }
    report.findings.push_back(std::move(finding));
  }
  for (const auto& [path, sup] : suppressions) {
    const auto stale = stale_suppressions(path, sup, used[path]);
    report.stale.insert(report.stale.end(), stale.begin(), stale.end());
  }
  sort_and_dedupe(report.findings);
  sort_and_dedupe(report.suppressed_findings);
}

// ---------------------------------------------------------------------------
// TOML subset

bool parse_string_array(const std::string& value,
                        std::vector<std::string>& items) {
  const std::string inner = trim(value);
  if (inner.size() < 2 || inner.front() != '[' || inner.back() != ']')
    return false;
  std::size_t i = 1;
  const std::size_t end = inner.size() - 1;
  while (i < end) {
    while (i < end && (std::isspace(static_cast<unsigned char>(inner[i])) !=
                           0 ||
                       inner[i] == ','))
      ++i;
    if (i >= end) break;
    if (inner[i] != '"') return false;
    const std::size_t close = inner.find('"', i + 1);
    if (close == std::string::npos || close > end) return false;
    items.push_back(inner.substr(i + 1, close - i - 1));
    i = close + 1;
  }
  return true;
}

bool parse_shared_section(
    const TomlSection& section, std::vector<std::string>* roots,
    std::map<std::string, std::vector<std::string>>& allow,
    std::string& error) {
  if (roots != nullptr && !section.is_array_of_tables &&
      section.name == "options") {
    for (const TomlEntry& entry : section.entries) {
      if (entry.key != "roots" || !entry.is_array) {
        error = "line " + std::to_string(entry.line) + ": unknown option " +
                entry.key;
        return false;
      }
      *roots = entry.items;
    }
    return true;
  }
  if (!section.is_array_of_tables && section.name == "allow") {
    for (const TomlEntry& entry : section.entries) {
      if (!entry.is_array) {
        error = "line " + std::to_string(entry.line) + ": bad allow array";
        return false;
      }
      allow[entry.key] = entry.items;
    }
    return true;
  }
  error = "line " + std::to_string(section.line) + ": unknown section " +
          section.name;
  return false;
}

bool parse_toml_subset(const std::string& text,
                       std::vector<TomlSection>& sections,
                       std::string& error) {
  sections.clear();
  std::istringstream in(text);
  std::string raw;
  std::size_t lineno = 0;
  while (std::getline(in, raw)) {
    ++lineno;
    // Strip comments, but not inside quoted strings (a '#' may legitimately
    // appear inside a value; none of our configs need that yet, so a plain
    // scan that respects quotes is enough).
    std::string stripped;
    bool in_string = false;
    for (const char c : raw) {
      if (c == '"') in_string = !in_string;
      if (c == '#' && !in_string) break;
      stripped += c;
    }
    const std::string line = trim(stripped);
    if (line.empty()) continue;
    if (starts_with(line, "[[") && line.ends_with("]]")) {
      const std::string name = trim(line.substr(2, line.size() - 4));
      if (name.empty()) {
        error = "line " + std::to_string(lineno) + ": empty section name";
        return false;
      }
      sections.push_back({name, true, lineno, {}});
      continue;
    }
    if (line.front() == '[') {
      if (!line.ends_with("]") || line.size() < 3) {
        error = "line " + std::to_string(lineno) + ": malformed section header";
        return false;
      }
      const std::string name = trim(line.substr(1, line.size() - 2));
      sections.push_back({name, false, lineno, {}});
      continue;
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      error = "line " + std::to_string(lineno) + ": expected key = value";
      return false;
    }
    if (sections.empty()) {
      error = "line " + std::to_string(lineno) + ": key outside any section";
      return false;
    }
    TomlEntry entry;
    entry.key = trim(line.substr(0, eq));
    entry.line = lineno;
    const std::string value = trim(line.substr(eq + 1));
    if (entry.key.empty() || value.empty()) {
      error = "line " + std::to_string(lineno) + ": expected key = value";
      return false;
    }
    if (value.front() == '[') {
      entry.is_array = true;
      if (!parse_string_array(value, entry.items)) {
        error = "line " + std::to_string(lineno) + ": bad string array";
        return false;
      }
    } else if (value.front() == '"') {
      if (value.size() < 2 || value.back() != '"') {
        error = "line " + std::to_string(lineno) + ": unterminated string";
        return false;
      }
      entry.scalar = value.substr(1, value.size() - 2);
    } else {
      entry.scalar = value;  // bare token (number, bool)
    }
    sections.back().entries.push_back(std::move(entry));
  }
  return true;
}

// ---------------------------------------------------------------------------
// SARIF export

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

namespace {

/// Emits one SARIF result object. `suppressed` results carry an inSource
/// suppression record so code scanning shows them as dismissed.
void write_sarif_result(std::ostream& out, const Finding& finding,
                        bool suppressed, bool first) {
  out << (first ? "\n" : ",\n")
      << "        {\n"
      << "          \"ruleId\": \"" << json_escape(finding.rule) << "\",\n"
      << "          \"level\": \"error\",\n"
      << "          \"message\": {\"text\": \"" << json_escape(finding.message)
      << "\"},\n";
  if (suppressed) {
    out << "          \"suppressions\": [{\"kind\": \"inSource\"}],\n";
  }
  out << "          \"locations\": [\n"
      << "            {\n"
      << "              \"physicalLocation\": {\n"
      << "                \"artifactLocation\": {\"uri\": \""
      << json_escape(finding.file) << "\"},\n"
      << "                \"region\": {\"startLine\": "
      << (finding.line == 0 ? 1 : finding.line) << "}\n"
      << "              }\n"
      << "            }\n"
      << "          ]\n"
      << "        }";
}

}  // namespace

void write_sarif(std::ostream& out, const std::string& tool_name,
                 const std::string& info_uri,
                 const std::vector<Finding>& findings,
                 const std::vector<Finding>& suppressed) {
  // Distinct rule ids, sorted, each becomes a reportingDescriptor.
  std::set<std::string> rules;
  for (const Finding& finding : findings) rules.insert(finding.rule);
  for (const Finding& finding : suppressed) rules.insert(finding.rule);

  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"" << json_escape(tool_name) << "\",\n"
      << "          \"informationUri\": \"" << json_escape(info_uri)
      << "\",\n"
      << "          \"rules\": [";
  bool first = true;
  for (const std::string& rule : rules) {
    out << (first ? "\n" : ",\n")
        << "            {\"id\": \"" << json_escape(rule) << "\"}";
    first = false;
  }
  out << (rules.empty() ? "]\n" : "\n          ]\n")
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  first = true;
  for (const Finding& finding : findings) {
    write_sarif_result(out, finding, /*suppressed=*/false, first);
    first = false;
  }
  for (const Finding& finding : suppressed) {
    write_sarif_result(out, finding, /*suppressed=*/true, first);
    first = false;
  }
  out << (first ? "]\n" : "\n      ]\n")
      << "    }\n"
      << "  ]\n"
      << "}\n";
}

}  // namespace reconfnet::textscan
