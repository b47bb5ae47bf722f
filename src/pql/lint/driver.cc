#include "pql/lint/driver.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "pql/analysis.h"
#include "pql/catalog.h"
#include "pql/diagnostics.h"
#include "pql/lint/fix.h"
#include "pql/lint/lint.h"
#include "pql/lint/output.h"
#include "pql/parser.h"
#include "pql/udf.h"

namespace ariadne::lint {
namespace {

constexpr char kUsage[] =
    "usage: ariadne_lint [options] <file.pql | directory>...\n"
    "\n"
    "Statically checks PQL programs: syntax, semantic analysis and lint\n"
    "passes, reporting every problem in one run with source spans.\n"
    "\n"
    "options:\n"
    "  --format text|json|sarif  output format (default text)\n"
    "  --Werror                  exit 1 when warnings were reported\n"
    "  --fix                     apply mechanical fixits in place, re-lint\n"
    "  --param NAME=VALUE        bind $NAME (int, double or string)\n"
    "  --stored NAME/ARITY       declare a stored relation (offline EDB)\n"
    "  --offline                 reject transient capture-time EDBs\n"
    "  --disable CODE            suppress a diagnostic code (e.g. PQL3002)\n"
    "  --explain CODE            print the description of a code and exit\n"
    "\n"
    "Files may embed per-file directives in `%!` comment pragmas:\n"
    "  %! stored prov-value/3\n"
    "  %! offline\n"
    "  %! param sigma=3\n"
    "\n"
    "Unbound $parameters are bound to 0 for linting (use --param for\n"
    "realistic values); pql_check keeps the strict contract.\n"
    "\n"
    "exit codes: 0 clean/warnings, 1 errors (or warnings with --Werror),\n"
    "2 usage or IO error\n";

struct DriverConfig {
  std::string format = "text";
  bool werror = false;
  bool fix = false;
  bool offline = false;
  std::vector<std::pair<std::string, Value>> params;
  StoreSchema store;
  std::set<std::string> disabled;
};

/// Per-file config after merging `%!` pragmas into the global flags.
DriverConfig MergePragmas(const DriverConfig& base, const std::string& source) {
  DriverConfig cfg = base;
  size_t pos = 0;
  while (pos < source.size()) {
    size_t eol = source.find('\n', pos);
    if (eol == std::string::npos) eol = source.size();
    std::string line = source.substr(pos, eol - pos);
    pos = eol + 1;
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line.compare(start, 2, "%!") != 0) {
      continue;
    }
    std::vector<std::string> words;
    std::string word;
    for (size_t i = start + 2; i <= line.size(); ++i) {
      if (i < line.size() && line[i] != ' ' && line[i] != '\t') {
        word.push_back(line[i]);
      } else if (!word.empty()) {
        words.push_back(std::move(word));
        word.clear();
      }
    }
    if (words.empty()) continue;
    if (words[0] == "offline") {
      cfg.offline = true;
    } else if (words[0] == "stored" && words.size() >= 2) {
      const size_t slash = words[1].rfind('/');
      if (slash != std::string::npos) {
        StoreSchema::Entry entry;
        entry.name = words[1].substr(0, slash);
        entry.arity = std::atoi(words[1].c_str() + slash + 1);
        cfg.store.relations.push_back(std::move(entry));
      }
    } else if (words[0] == "param" && words.size() >= 2) {
      const size_t eq = words[1].find('=');
      if (eq != std::string::npos) {
        cfg.params.emplace_back(words[1].substr(0, eq),
                                ParseParamValue(words[1].substr(eq + 1)));
      }
    }
  }
  return cfg;
}

/// Parses, analyzes and lints one source buffer into `sink`.
void LintSource(const std::string& file, const std::string& source,
                const DriverConfig& cfg, DiagnosticSink& sink) {
  sink.SetSource(file, source);
  Program program = ParseProgram(source, sink);
  const std::set<std::string> program_params = program.UnboundParameters();

  LintOptions lopts;
  lopts.disabled = cfg.disabled;
  for (const auto& [name, value] : cfg.params) {
    lopts.provided_params.push_back(name);
  }

  // Bind provided parameters; remaining ones get a neutral 0 so analysis
  // and plan-level lints still run (documented in --help).
  std::vector<std::pair<std::string, Value>> binds;
  for (const auto& [name, value] : cfg.params) {
    if (program_params.count(name) > 0) binds.emplace_back(name, value);
  }
  for (const std::string& name : program_params) {
    bool provided = false;
    for (const auto& [pname, v] : binds) {
      if (pname == name) {
        provided = true;
        break;
      }
    }
    if (!provided) binds.emplace_back(name, Value(static_cast<int64_t>(0)));
  }
  if (!binds.empty()) (void)program.BindParameters(binds);

  // After a syntax error the surviving rules are often missing their
  // context (a dropped rule's head looks like an unknown predicate), so
  // semantic analysis only runs on cleanly parsed programs; AST-level
  // lint passes still run either way.
  std::optional<AnalyzedQuery> query;
  if (!sink.has_errors()) {
    AnalyzeOptions aopts;
    aopts.allow_transient = !cfg.offline;
    auto analyzed =
        Analyze(program, Catalog::Default(), UdfRegistry::Default(),
                cfg.store.relations.empty() ? nullptr : &cfg.store, aopts,
                &sink);
    if (analyzed.ok()) query = std::move(*analyzed);
  }

  LintInput input;
  input.program = &program;
  input.query = query.has_value() ? &*query : nullptr;
  input.catalog = &Catalog::Default();
  input.udfs = &UdfRegistry::Default();
  input.store = cfg.store.relations.empty() ? nullptr : &cfg.store;
  input.program_params = program_params;
  RunLintPasses(input, lopts, sink);
  sink.SortBySpan();
}

}  // namespace

int RunAriadneLint(const std::vector<std::string>& args, std::string* out,
                   std::string* err) {
  DriverConfig cfg;
  std::vector<std::string> inputs;

  auto flag_value = [&](size_t& i, const std::string& flag,
                        std::string* value) {
    if (i + 1 >= args.size()) {
      *err += "ariadne_lint: " + flag + " requires an argument\n";
      return false;
    }
    *value = args[++i];
    return true;
  };

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    std::string v;
    if (a == "--help" || a == "-h") {
      *out += kUsage;
      return 0;
    } else if (a == "--format") {
      if (!flag_value(i, a, &v)) return 2;
      if (v != "text" && v != "json" && v != "sarif") {
        *err += "ariadne_lint: unknown format '" + v + "'\n";
        return 2;
      }
      cfg.format = v;
    } else if (a == "--Werror") {
      cfg.werror = true;
    } else if (a == "--fix") {
      cfg.fix = true;
    } else if (a == "--offline") {
      cfg.offline = true;
    } else if (a == "--param") {
      if (!flag_value(i, a, &v)) return 2;
      const size_t eq = v.find('=');
      if (eq == std::string::npos) {
        *err += "ariadne_lint: --param expects NAME=VALUE\n";
        return 2;
      }
      cfg.params.emplace_back(v.substr(0, eq),
                              ParseParamValue(v.substr(eq + 1)));
    } else if (a == "--stored") {
      if (!flag_value(i, a, &v)) return 2;
      const size_t slash = v.rfind('/');
      if (slash == std::string::npos) {
        *err += "ariadne_lint: --stored expects NAME/ARITY\n";
        return 2;
      }
      StoreSchema::Entry entry;
      entry.name = v.substr(0, slash);
      entry.arity = std::atoi(v.c_str() + slash + 1);
      cfg.store.relations.push_back(std::move(entry));
    } else if (a == "--disable") {
      if (!flag_value(i, a, &v)) return 2;
      cfg.disabled.insert(v);
    } else if (a == "--explain") {
      if (!flag_value(i, a, &v)) return 2;
      const char* desc = DiagCodeDescription(v);
      if (desc == nullptr) {
        *err += "ariadne_lint: unknown diagnostic code '" + v + "'\n";
        return 2;
      }
      *out += v + ": " + desc + "\n";
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      *err += "ariadne_lint: unknown option '" + a + "'\n" + kUsage;
      return 2;
    } else {
      inputs.push_back(a);
    }
  }
  if (inputs.empty()) {
    *err += kUsage;
    return 2;
  }

  // Expand directories to their .pql files (sorted, recursive).
  std::vector<std::string> files;
  for (const std::string& input : inputs) {
    std::error_code ec;
    if (std::filesystem::is_directory(input, ec)) {
      std::vector<std::string> found;
      for (const auto& entry :
           std::filesystem::recursive_directory_iterator(input, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".pql") {
          found.push_back(entry.path().string());
        }
      }
      if (ec) {
        *err += "ariadne_lint: cannot read directory " + input + ": " +
                ec.message() + "\n";
        return 2;
      }
      std::sort(found.begin(), found.end());
      if (found.empty()) {
        *err += "ariadne_lint: no .pql files under " + input + "\n";
        return 2;
      }
      files.insert(files.end(), found.begin(), found.end());
    } else {
      files.push_back(input);
    }
  }

  std::vector<FileLintResult> results;
  size_t total_errors = 0;
  size_t total_warnings = 0;
  int fixes_applied = 0;
  for (const std::string& file : files) {
    auto source = ReadFile(file);
    if (!source.ok()) {
      *err += "ariadne_lint: cannot read " + file + ": " +
              source.status().message() + "\n";
      return 2;
    }
    DriverConfig file_cfg = MergePragmas(cfg, *source);
    DiagnosticSink sink;
    LintSource(file, *source, file_cfg, sink);

    if (cfg.fix) {
      int applied = 0;
      const std::string fixed =
          ApplyFixits(*source, sink.diagnostics(), &applied);
      if (applied > 0) {
        Status written = WriteFile(file, fixed);
        if (!written.ok()) {
          *err += "ariadne_lint: cannot write " + file + ": " +
                  written.message() + "\n";
          return 2;
        }
        fixes_applied += applied;
        // Re-lint the rewritten source; remaining diagnostics are what
        // the user still has to address by hand.
        DiagnosticSink fixed_sink;
        LintSource(file, fixed, file_cfg, fixed_sink);
        sink = std::move(fixed_sink);
      }
    }

    total_errors += sink.error_count();
    total_warnings += sink.warning_count();
    if (cfg.format == "text") {
      *out += sink.RenderText();
    } else {
      FileLintResult result;
      result.file = file;
      result.diagnostics = sink.diagnostics();
      results.push_back(std::move(result));
    }
  }

  if (cfg.format == "json") {
    *out += RenderJson(results);
  } else if (cfg.format == "sarif") {
    *out += RenderSarif(results);
  } else {
    if (fixes_applied > 0) {
      *out += "applied " + std::to_string(fixes_applied) + " fix" +
              (fixes_applied == 1 ? "" : "es") + "\n";
    }
    *out += std::to_string(files.size()) + " file" +
            (files.size() == 1 ? "" : "s") + " checked: " +
            std::to_string(total_errors) + " error" +
            (total_errors == 1 ? "" : "s") + ", " +
            std::to_string(total_warnings) + " warning" +
            (total_warnings == 1 ? "" : "s");
    if (cfg.werror && total_warnings > 0) *out += " (warnings as errors)";
    *out += "\n";
  }

  if (total_errors > 0) return 1;
  if (cfg.werror && total_warnings > 0) return 1;
  return 0;
}

}  // namespace ariadne::lint
