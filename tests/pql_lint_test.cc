// Tests for the PQL static analyzer: multi-error recovery in the lexer /
// parser / analyzer, the lint passes (exact code + span + message), the
// ariadne_lint driver (exit codes, --Werror, --fix, batch mode) and the
// JSON / SARIF output (structural schema validity).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "pql/analysis.h"
#include "pql/catalog.h"
#include "pql/diagnostics.h"
#include "pql/lint/driver.h"
#include "pql/lint/fix.h"
#include "pql/lint/lint.h"
#include "pql/parser.h"
#include "pql/udf.h"

namespace ariadne {
namespace {

constexpr char kFixtureDir[] = ARIADNE_SOURCE_DIR "/tests/data/lint";
constexpr char kExamplesDir[] = ARIADNE_SOURCE_DIR "/examples/pql";

bool HasCode(const DiagnosticSink& sink, const std::string& code) {
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == code) return true;
  }
  return false;
}

const Diagnostic& FindCode(const DiagnosticSink& sink,
                           const std::string& code) {
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.code == code) return d;
  }
  static const Diagnostic missing;
  ADD_FAILURE() << "diagnostic " << code << " not found";
  return missing;
}

struct DriverRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

DriverRun RunDriver(std::vector<std::string> args) {
  DriverRun run;
  run.exit_code = lint::RunAriadneLint(args, &run.out, &run.err);
  return run;
}

/// Writes `content` under a per-process temp dir and returns the path.
std::string WriteTemp(const std::string& name, const std::string& content) {
  const std::string dir = ::testing::TempDir() + "ariadne_lint_test_" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name;
  EXPECT_TRUE(WriteFile(path, content).ok());
  return path;
}

/// Strips the directory prefix of `path` from every line of `text` so
/// golden files stay location-independent.
std::string StripDir(const std::string& text, const std::string& path) {
  const std::string dir =
      std::filesystem::path(path).parent_path().string() + "/";
  std::string out = text;
  size_t pos = 0;
  while ((pos = out.find(dir, pos)) != std::string::npos) {
    out.erase(pos, dir.size());
  }
  return out;
}

/// Parses, binds `$`params to 0, analyzes and lints `text`, accumulating
/// everything into one sink (the same pipeline the driver runs).
struct Linted {
  Program program;
  std::optional<AnalyzedQuery> query;
  DiagnosticSink sink;
};

Linted LintText(const std::string& text, const lint::LintOptions& lopts = {},
                const StoreSchema* store = nullptr) {
  Linted r;
  r.sink.SetSource("test.pql", text);
  r.program = ParseProgram(text, r.sink);
  const auto params = r.program.UnboundParameters();
  std::vector<std::pair<std::string, Value>> binds;
  for (const auto& p : params) binds.emplace_back(p, Value(int64_t{0}));
  if (!binds.empty()) {
    EXPECT_TRUE(r.program.BindParameters(binds).ok());
  }
  if (!r.sink.has_errors()) {
    auto analyzed = Analyze(r.program, Catalog::Default(),
                            UdfRegistry::Default(), store, {}, &r.sink);
    if (analyzed.ok()) r.query = std::move(*analyzed);
  }
  lint::LintInput input;
  input.program = &r.program;
  input.query = r.query.has_value() ? &*r.query : nullptr;
  input.catalog = &Catalog::Default();
  input.udfs = &UdfRegistry::Default();
  input.store = store;
  input.program_params = params;
  lint::RunLintPasses(input, lopts, r.sink);
  r.sink.SortBySpan();
  return r;
}

// ---------------------------------------------------------------------------
// Multi-error recovery through the front end

TEST(ParserRecoveryTest, ReportsEverySyntaxErrorInOnePass) {
  DiagnosticSink sink;
  sink.SetSource("syntax.pql",
                 "good(x, i) <- superstep(x, i).\n"
                 "bad1(x <- superstep(x, i).\n"
                 "bad2(x, ) <- value(x, d, i).\n"
                 "bad3(x, i) <- superstep(x i).\n");
  Program program = ParseProgram(sink.source(), sink);
  EXPECT_EQ(sink.error_count(), 3u);
  EXPECT_EQ(program.rules.size(), 1u);  // only the good rule survives
  std::set<int> lines;
  for (const Diagnostic& d : sink.diagnostics()) {
    EXPECT_EQ(d.code, "PQL1004");
    EXPECT_TRUE(d.span.valid());
    lines.insert(d.span.line);
  }
  EXPECT_EQ(lines, (std::set<int>{2, 3, 4}));
}

TEST(AnalyzerRecoveryTest, AccumulatesSemanticErrorsAcrossRules) {
  const std::string text =
      "a(x, i) <- nope(x, i).\n"
      "b(x, i) <- value(x, i).\n"
      "c(x, i) <- superstep(x, i).\n";
  DiagnosticSink sink;
  sink.SetSource("multi.pql", text);
  Program program = ParseProgram(text, sink);
  ASSERT_FALSE(sink.has_errors());
  auto result = Analyze(program, Catalog::Default(), UdfRegistry::Default(),
                        nullptr, {}, &sink);
  ASSERT_FALSE(result.ok());
  // Legacy Status is the FIRST error with its original category.
  EXPECT_TRUE(result.status().IsAnalysisError());
  EXPECT_NE(result.status().message().find("nope"), std::string::npos);
  // Both bad rules were diagnosed in one run, each with a span.
  EXPECT_EQ(sink.error_count(), 2u);
  EXPECT_TRUE(HasCode(sink, "PQL2008"));
  EXPECT_TRUE(HasCode(sink, "PQL2006"));
  for (const Diagnostic& d : sink.diagnostics()) {
    EXPECT_TRUE(d.span.valid()) << d.code;
  }
}

TEST(AnalyzerRecoveryTest, EveryLegacyErrorCarriesSpanAndCode) {
  // Unbound parameter: previously a bare string, now PQL2001 with the
  // parameter's own span.
  const std::string text = "p(x, i) <- value(x, d, i), d > $eps.\n";
  DiagnosticSink sink;
  sink.SetSource("param.pql", text);
  Program program = ParseProgram(text, sink);
  auto result = Analyze(program, Catalog::Default(), UdfRegistry::Default(),
                        nullptr, {}, &sink);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("eps"), std::string::npos);
  const Diagnostic& d = FindCode(sink, "PQL2001");
  EXPECT_EQ(d.span.line, 1);
  EXPECT_EQ(d.span.column, 32);  // the `$eps` token
  EXPECT_EQ(d.span.length, 4);
}

// ---------------------------------------------------------------------------
// Lint passes: exact code + span + message

TEST(LintPassTest, CartesianProductAndFullScanPlan) {
  lint::LintOptions lopts;
  lopts.disabled.insert("PQL3002");  // singleton noise not under test
  Linted r = LintText("pair(x, y) <- superstep(x, i), value(y, d, j).\n",
                      lopts);
  ASSERT_TRUE(r.query.has_value());
  const Diagnostic& cartesian = FindCode(r.sink, "PQL3005");
  EXPECT_EQ(cartesian.span.line, 1);
  EXPECT_EQ(cartesian.span.column, 32);  // the value(...) atom
  EXPECT_EQ(cartesian.message,
            "atom 'value' shares no bound variables with earlier atoms "
            "(cartesian product)");
  const Diagnostic& scans = FindCode(r.sink, "PQL3010");
  EXPECT_EQ(scans.span.column, 1);  // anchored at the rule head name
  EXPECT_NE(scans.message.find("O(N^2)"), std::string::npos);
}

TEST(LintPassTest, NegationOverRecursivePredicate) {
  Linted r = LintText(
      "reach(x, i) <- superstep(x, i), x = 1.\n"
      "reach(x, i) <- receive-message(x, y, m, i), reach(y, j), j = i - 1.\n"
      "blocked(x, i) <- superstep(x, i), !reach(x, i).\n",
      [] {
        lint::LintOptions o;
        o.disabled.insert("PQL3002");
        return o;
      }());
  ASSERT_TRUE(r.query.has_value());
  const Diagnostic& d = FindCode(r.sink, "PQL3006");
  EXPECT_EQ(d.span.line, 3);
  EXPECT_EQ(d.span.column, 35);  // the !reach(x, i) literal
  EXPECT_NE(d.message.find("'reach'"), std::string::npos);
}

TEST(LintPassTest, ConstantComparisons) {
  Linted t = LintText("p(x, i) <- superstep(x, i), 2 * 3 >= 6.\n");
  const Diagnostic& always_true = FindCode(t.sink, "PQL3007");
  EXPECT_EQ(always_true.span.line, 1);
  EXPECT_EQ(always_true.span.column, 29);
  EXPECT_EQ(always_true.message,
            "comparison '(2 * 3) >= 6' is always true (redundant literal)");
  ASSERT_EQ(always_true.fixits.size(), 1u);  // removal fixit

  Linted f = LintText("p(x, i) <- superstep(x, i), 1 > 2.\n");
  const Diagnostic& always_false = FindCode(f.sink, "PQL3008");
  EXPECT_EQ(always_false.message,
            "comparison '1 > 2' is always false (rule can never fire)");
  EXPECT_TRUE(always_false.fixits.empty());  // removal would change meaning
}

TEST(LintPassTest, SingletonVariableHasRenameFixit) {
  const std::string text = "p(x, i) <- value(x, d, i).\n";
  Linted r = LintText(text);
  const Diagnostic& d = FindCode(r.sink, "PQL3002");
  EXPECT_EQ(d.span.line, 1);
  EXPECT_EQ(d.span.column, 21);  // the `d`
  ASSERT_EQ(d.fixits.size(), 1u);
  EXPECT_EQ(d.fixits[0].replacement, "_d");
  // Underscore-prefixed variables are exempt.
  Linted ok = LintText("p(x, i) <- value(x, _d, i).\n");
  EXPECT_FALSE(HasCode(ok.sink, "PQL3002"));
}

TEST(LintPassTest, ShadowedStoredRelationAndConfusableBuiltin) {
  StoreSchema store;
  store.relations.push_back({"prov-value", 3});
  Linted shadow =
      LintText("prov-value(x, i, d) <- value(x, d, i).\n", {}, &store);
  const Diagnostic& s = FindCode(shadow.sink, "PQL3003");
  EXPECT_EQ(s.span.column, 1);
  EXPECT_NE(s.message.find("shadows a stored relation"), std::string::npos);

  // send_message is not a catalog name (send-message is): PQL3004 fires
  // alongside the unknown-predicate error in the same run.
  Linted confusable =
      LintText("p(x, i) <- send_message(x, y, m, i).\n",
               [] {
                 lint::LintOptions o;
                 o.disabled.insert("PQL3002");
                 return o;
               }());
  EXPECT_TRUE(HasCode(confusable.sink, "PQL2008"));
  const Diagnostic& c = FindCode(confusable.sink, "PQL3004");
  EXPECT_NE(c.message.find("'send-message'"), std::string::npos);
}

TEST(LintPassTest, UnusedParameterWarns) {
  lint::LintOptions lopts;
  lopts.provided_params.push_back("ghost");
  Linted r = LintText("p(x, i) <- superstep(x, i).\n", lopts);
  const Diagnostic& d = FindCode(r.sink, "PQL3009");
  EXPECT_FALSE(d.span.valid());
  EXPECT_EQ(d.message,
            "parameter $ghost was provided but the program never uses it");
}

TEST(LintPassTest, UnreachableRuleCycle) {
  Linted r = LintText(
      "out(x, i) <- superstep(x, i).\n"
      "orphan-a(x, i) <- orphan-b(x, i).\n"
      "orphan-b(x, i) <- orphan-a(x, i).\n");
  int unreachable = 0;
  for (const Diagnostic& d : r.sink.diagnostics()) {
    if (d.code == "PQL3001") ++unreachable;
  }
  EXPECT_EQ(unreachable, 2);
  EXPECT_FALSE(HasCode(r.sink, "PQL3005"));
}

// ---------------------------------------------------------------------------
// Driver: golden file, exit codes, formats, --fix

TEST(DriverTest, BrokenFixtureMatchesGolden) {
  auto fixture = ReadFile(std::string(kFixtureDir) + "/broken.pql");
  ASSERT_TRUE(fixture.ok());
  const std::string path = WriteTemp("broken.pql", *fixture);
  DriverRun run = RunDriver({path});
  EXPECT_EQ(run.exit_code, 1);
  auto golden = ReadFile(std::string(kFixtureDir) + "/broken.expected");
  ASSERT_TRUE(golden.ok());
  EXPECT_EQ(StripDir(run.out, path), *golden);
}

TEST(DriverTest, ExamplesLintCleanUnderWerror) {
  DriverRun run = RunDriver({"--Werror", kExamplesDir});
  EXPECT_EQ(run.exit_code, 0) << run.out << run.err;
  EXPECT_NE(run.out.find("11 files checked: 0 errors, 0 warnings"),
            std::string::npos)
      << run.out;
}

TEST(DriverTest, WerrorFlipsWarningOnlyRunToExitOne) {
  const std::string path =
      WriteTemp("warn.pql", "p(x, i) <- value(x, d, i).\n");
  EXPECT_EQ(RunDriver({path}).exit_code, 0);
  EXPECT_EQ(RunDriver({"--Werror", path}).exit_code, 1);
}

TEST(DriverTest, UsageAndIoErrorsExitTwo) {
  EXPECT_EQ(RunDriver({}).exit_code, 2);
  EXPECT_EQ(RunDriver({"--format", "xml", "x.pql"}).exit_code, 2);
  EXPECT_EQ(RunDriver({"--no-such-flag", "x.pql"}).exit_code, 2);
  EXPECT_EQ(RunDriver({"/no/such/file.pql"}).exit_code, 2);
}

TEST(DriverTest, FixRewritesFileAndReparsesClean) {
  const std::string path = WriteTemp(
      "fixable.pql", "p(x, i) <- superstep(x, i), value(x, d, i), 1 <= 2.\n");
  DriverRun run = RunDriver({"--fix", path});
  EXPECT_EQ(run.exit_code, 0) << run.out;
  auto fixed = ReadFile(path);
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(*fixed, "p(x, i) <- superstep(x, i), value(x, _d, i).\n");
  EXPECT_TRUE(ParseProgram(*fixed).ok());
  // The rewritten file lints clean even under --Werror.
  EXPECT_EQ(RunDriver({"--Werror", path}).exit_code, 0);
}

TEST(DriverTest, PragmasConfigureStoreOfflineAndParams) {
  const std::string path = WriteTemp(
      "pragma.pql",
      "%! stored prov-x/2\n%! offline\n%! param k=3\n"
      "out(x, i) <- prov-x(x, i), i = $k.\n");
  DriverRun run = RunDriver({path});
  EXPECT_EQ(run.exit_code, 0) << run.out;
}

TEST(DriverTest, JsonFormatCountsErrorsAndWarnings) {
  DriverRun run = RunDriver(
      {"--format", "json", std::string(kFixtureDir) + "/broken.pql"});
  EXPECT_EQ(run.exit_code, 1);
  EXPECT_NE(run.out.find("\"errors\": 2"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("\"warnings\": 4"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("\"code\": \"PQL2008\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// SARIF structural schema validity (hand-rolled JSON walker: the build has
// no JSON library, so validate the grammar and the fields we rely on).

struct JsonCursor {
  const std::string& s;
  size_t i = 0;

  void Ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool Eat(char c) {
    Ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  /// Validates one JSON value; returns false on malformed input.
  bool SkipValue() {
    Ws();
    if (i >= s.size()) return false;
    const char c = s[i];
    if (c == '{') {
      ++i;
      if (Eat('}')) return true;
      do {
        Ws();
        if (!SkipString()) return false;
        if (!Eat(':')) return false;
        if (!SkipValue()) return false;
      } while (Eat(','));
      return Eat('}');
    }
    if (c == '[') {
      ++i;
      if (Eat(']')) return true;
      do {
        if (!SkipValue()) return false;
      } while (Eat(','));
      return Eat(']');
    }
    if (c == '"') return SkipString();
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      while (i < s.size() &&
             (std::isdigit(static_cast<unsigned char>(s[i])) || s[i] == '-' ||
              s[i] == '+' || s[i] == '.' || s[i] == 'e' || s[i] == 'E')) {
        ++i;
      }
      return true;
    }
    for (const char* kw : {"true", "false", "null"}) {
      const size_t n = std::string(kw).size();
      if (s.compare(i, n, kw) == 0) {
        i += n;
        return true;
      }
    }
    return false;
  }
  bool SkipString() {
    Ws();
    if (i >= s.size() || s[i] != '"') return false;
    ++i;
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') ++i;
      ++i;
    }
    if (i >= s.size()) return false;
    ++i;
    return true;
  }
};

TEST(SarifTest, OutputIsWellFormedAndCarriesRequiredFields) {
  DriverRun run = RunDriver(
      {"--format", "sarif", std::string(kFixtureDir) + "/broken.pql"});
  EXPECT_EQ(run.exit_code, 1);
  JsonCursor cursor{run.out};
  EXPECT_TRUE(cursor.SkipValue()) << "malformed JSON near offset "
                                  << cursor.i;
  cursor.Ws();
  EXPECT_EQ(cursor.i, run.out.size()) << "trailing garbage";

  EXPECT_NE(run.out.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(run.out.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(run.out.find("\"name\": \"ariadne_lint\""), std::string::npos);
  // Every result has a ruleId naming a registered code, a level and a
  // message; spans carry 1-based startLine/startColumn.
  size_t pos = 0;
  int results = 0;
  while ((pos = run.out.find("\"ruleId\": \"", pos)) != std::string::npos) {
    pos += 11;
    const std::string code = run.out.substr(pos, 7);
    EXPECT_NE(DiagCodeDescription(code), nullptr) << code;
    ++results;
  }
  EXPECT_EQ(results, 6);
  EXPECT_NE(run.out.find("\"startLine\": 3"), std::string::npos);
  EXPECT_EQ(run.out.find("\"startLine\": 0"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Exit-code contract of pql_check's sibling entry points is covered above;
// the diagnostic registry itself must stay description-complete.

TEST(DiagnosticRegistryTest, EveryCodeHasDescription) {
  for (const std::string& code : AllDiagCodes()) {
    EXPECT_NE(DiagCodeDescription(code), nullptr) << code;
    EXPECT_EQ(code.size(), 7u) << code;
    EXPECT_EQ(code.substr(0, 3), "PQL") << code;
  }
  EXPECT_EQ(DiagCodeDescription("PQL9999"), nullptr);
}

}  // namespace
}  // namespace ariadne
