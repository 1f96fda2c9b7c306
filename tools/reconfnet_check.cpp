// reconfnet_check: the one front end of the five static analyzers. Each
// analyzer is a rule module (see textscan::Module); this front end owns
// everything around the rules.
//
// Usage:
//   reconfnet_check <analyzer> [--root DIR] [--spec FILE] [--sarif FILE]
//                   [--stale-suppressions] [--list-rules] [--version]
//                   [file...]
//
//   analyzer      lint | protocheck | hotcheck | racecheck | oraclecheck
//   --root DIR    repository root (default: current directory). All paths
//                 are interpreted and reported relative to it.
//   --spec FILE   the analyzer's spec (default: its file under ROOT/tools/,
//                 e.g. tools/lint/layers.toml)
//   --sarif FILE  also write the findings as SARIF 2.1.0 (for the CI
//                 code-scanning upload); does not change the exit status
//   --stale-suppressions
//                 report only inline allow() comments whose rule no longer
//                 fires on the line they cover; always exits 0 (a
//                 housekeeping report, not a gate)
//   --list-rules  print one `ID<TAB>summary` line per rule
//   --version     print `reconfnet_<analyzer> <version>`
//   file...       check exactly these files instead of walking the
//                 analyzer's roots; partial runs skip the whole-tree rules
//                 (fixture files under tests/*_fixtures/ are only reachable
//                 this way)
//
// Exit status: 0 clean, 1 findings, 2 usage or configuration error.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "hotcheck/hotcheck.hpp"
#include "lint/lint.hpp"
#include "oraclecheck/oraclecheck.hpp"
#include "protocheck/protocheck.hpp"
#include "racecheck/racecheck.hpp"

namespace fs = std::filesystem;
using reconfnet::textscan::Module;

namespace {

constexpr const char* kUsage =
    "usage: reconfnet_check <lint|protocheck|hotcheck|racecheck|oraclecheck>"
    " [--root DIR] [--spec FILE] [--sarif FILE] [--stale-suppressions]"
    " [--list-rules] [--version] [file...]\n";

const Module* find_module(const std::string& name) {
  for (const Module* module :
       {&reconfnet::lint::module(), &reconfnet::protocheck::module(),
        &reconfnet::hotcheck::module(), &reconfnet::racecheck::module(),
        &reconfnet::oraclecheck::module()}) {
    if (name == module->name) return module;
  }
  return nullptr;
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

bool checkable_extension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

std::string repo_relative(const fs::path& path, const fs::path& root) {
  std::error_code ec;
  const fs::path canonical = fs::weakly_canonical(path, ec);
  const fs::path canonical_root = fs::weakly_canonical(root, ec);
  const fs::path rel = canonical.lexically_relative(canonical_root);
  return rel.generic_string();
}

/// Every checkable file under the given root prefixes, repo-relative.
std::set<std::string> walk(const fs::path& root,
                           const std::vector<std::string>& prefixes) {
  std::set<std::string> paths;
  for (const std::string& prefix : prefixes) {
    const fs::path base = root / prefix;
    if (!fs::exists(base)) continue;
    for (auto it = fs::recursive_directory_iterator(base);
         it != fs::recursive_directory_iterator(); ++it) {
      if (it->is_regular_file() && checkable_extension(it->path()))
        paths.insert(repo_relative(it->path(), root));
    }
  }
  return paths;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string first = argv[1];
  if (first == "--help" || first == "-h") {
    std::cout << kUsage;
    return 0;
  }
  const Module* module = find_module(first);
  if (module == nullptr) {
    std::cerr << "reconfnet_check: unknown analyzer '" << first << "'\n"
              << kUsage;
    return 2;
  }
  const std::string tool = std::string("reconfnet_") + module->name;

  fs::path root = ".";
  fs::path spec_path;
  fs::path sarif_path;
  bool stale_mode = false;
  std::vector<std::string> explicit_files;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << tool << ": " << flag << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--root") {
      root = next("--root");
    } else if (arg == "--spec") {
      spec_path = next("--spec");
    } else if (arg == "--sarif") {
      sarif_path = next("--sarif");
    } else if (arg == "--stale-suppressions") {
      stale_mode = true;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else if (arg == "--version") {
      std::cout << tool << " " << reconfnet::textscan::kToolsVersion << "\n";
      return 0;
    } else if (arg == "--list-rules") {
      for (const auto& rule : module->rules) {
        std::cout << rule.id << "\t" << rule.summary << "\n";
      }
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << tool << ": unknown option " << arg << "\n";
      return 2;
    } else {
      explicit_files.push_back(arg);
    }
  }
  if (spec_path.empty()) spec_path = root / module->default_spec;

  std::string spec_text;
  if (!read_file(spec_path, spec_text)) {
    std::cerr << tool << ": cannot read spec " << spec_path << "\n";
    return 2;
  }
  std::string error;
  const auto checker =
      module->load(spec_text, repo_relative(spec_path, root), error);
  if (!checker) {
    std::cerr << tool << ": bad spec: " << error << "\n";
    return 2;
  }

  // Fixture files carry deliberate violations: the tree walk skips them,
  // so they are only checked when named explicitly. A partial run still
  // registers every path under the roots, so quoted includes of unchecked
  // files resolve instead of looking foreign.
  std::set<std::string> paths;
  if (explicit_files.empty()) {
    for (const std::string& rel : walk(root, checker->roots())) {
      if (rel.find("_fixtures") == std::string::npos) paths.insert(rel);
    }
  } else {
    for (const std::string& file : explicit_files) {
      const fs::path p =
          fs::path(file).is_absolute() ? fs::path(file) : root / file;
      if (!fs::exists(p)) {
        std::cerr << tool << ": no such file: " << file << "\n";
        return 2;
      }
      paths.insert(repo_relative(p, root));
    }
    checker->set_partial(true);
    for (const std::string& rel : walk(root, checker->roots())) {
      checker->add_known_path(rel);
    }
  }
  if (paths.empty()) {
    std::cerr << tool << ": no input files\n";
    return 2;
  }
  for (const std::string& rel : paths) {
    std::string content;
    if (!read_file(root / rel, content)) {
      std::cerr << tool << ": cannot read " << rel << "\n";
      return 2;
    }
    checker->add_file(rel, content);
  }

  const reconfnet::textscan::Report report = checker->check();
  if (stale_mode) {
    for (const auto& stale : report.stale) {
      std::cout << stale.file << ":" << stale.line << ": stale suppression "
                << "allow(" << stale.rule << ") — the rule no longer fires "
                << "on the line it covers\n";
    }
    std::cerr << tool << ": " << report.stale.size()
              << " stale suppressions\n";
    return 0;
  }
  for (const auto& finding : report.findings) {
    std::cout << finding.file << ":" << finding.line << ": " << finding.rule
              << " " << finding.message << "\n";
  }
  if (!sarif_path.empty()) {
    std::ofstream sarif(sarif_path, std::ios::binary);
    if (!sarif) {
      std::cerr << tool << ": cannot write " << sarif_path << "\n";
      return 2;
    }
    const std::string catalogue = std::string("tools/") + module->name +
                                  "/" + module->name + ".hpp";
    reconfnet::textscan::write_sarif(sarif, tool, catalogue, report.findings,
                                     report.suppressed_findings);
  }
  std::cerr << tool << ": " << report.files_checked << " files, "
            << report.tallies << report.findings.size() << " findings ("
            << report.suppressed << " suppressed)\n";
  return report.findings.empty() ? 0 : 1;
}
