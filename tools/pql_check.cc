// pql_check — a PQL linter/explainer.
//
// Usage:
//   pql_check <query.pql> [--param name=value ...] [--offline]
//             [--stored name/arity ...]
//
// Parses the query, binds parameters, runs the full semantic analysis and
// prints the classification a developer needs before running it: strata,
// per-rule direction, VC compatibility, which relations would be shipped
// between vertices, the evaluation modes the query is eligible for, and
// whether capture would take the compiled fast path.
//
// Exit-code contract (shared with ariadne_lint):
//   0  the query parsed, bound and analyzed cleanly
//   1  the query is invalid (parse, parameter or analysis errors)
//   2  usage errors or file IO failures (missing/unreadable input)
//
// For multi-error reporting with source spans, fixits and SARIF output,
// use ariadne_lint; pql_check keeps the strict single-query contract.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/string_util.h"
#include "core/ariadne.h"

using namespace ariadne;

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: pql_check <query.pql> [--param name=value ...] [--offline]\n"
      "                 [--stored name/arity ...]\n"
      "  --param   bind $name (value parsed as int, then double, else "
      "string)\n"
      "  --offline analyze for offline evaluation (transient EDBs "
      "rejected)\n"
      "  --stored  declare a captured relation, e.g. --stored prov-send/2\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string path = argv[1];
  QueryParams params;
  StoreSchema schema;
  bool offline = false;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--offline") == 0) {
      offline = true;
    } else if (std::strcmp(argv[i], "--param") == 0 && i + 1 < argc) {
      const std::string kv = argv[++i];
      const auto eq = kv.find('=');
      if (eq == std::string::npos) return Usage();
      params.emplace_back(kv.substr(0, eq), ParseParamValue(kv.substr(eq + 1)));
    } else if (std::strcmp(argv[i], "--stored") == 0 && i + 1 < argc) {
      const std::string spec = argv[++i];
      const auto slash = spec.find('/');
      if (slash == std::string::npos) return Usage();
      schema.relations.push_back(
          {spec.substr(0, slash), std::atoi(spec.c_str() + slash + 1)});
    } else {
      return Usage();
    }
  }

  auto text = ReadFile(path);
  if (!text.ok()) {
    std::fprintf(stderr, "error: %s\n", text.status().ToString().c_str());
    return 2;  // IO failure, not a query problem
  }
  auto program = ParseProgram(*text);
  if (!program.ok()) {
    std::fprintf(stderr, "parse error: %s\n",
                 program.status().ToString().c_str());
    return 1;
  }
  std::printf("parsed %zu rule(s)\n", program->rules.size());
  const auto unbound = program->UnboundParameters();
  if (!unbound.empty() && !params.empty()) {
    Status bound = program->BindParameters(params);
    if (!bound.ok()) {
      std::fprintf(stderr, "parameter error: %s\n", bound.ToString().c_str());
      return 1;
    }
  } else if (!unbound.empty()) {
    std::fprintf(stderr, "unbound parameters:");
    for (const auto& p : unbound) std::fprintf(stderr, " $%s", p.c_str());
    std::fprintf(stderr, " (bind with --param)\n");
    return 1;
  }

  AnalyzeOptions options;
  options.allow_transient = !offline;
  auto query = Analyze(*program, Catalog::Default(), UdfRegistry::Default(),
                       schema.relations.empty() ? nullptr : &schema, options);
  if (!query.ok()) {
    std::fprintf(stderr, "analysis error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }

  std::printf("%s", query->DebugString().c_str());
  std::printf("eligible evaluation modes:");
  for (EvalMode mode :
       {EvalMode::kOnline, EvalMode::kLayered, EvalMode::kNaive}) {
    if (ValidateMode(*query, mode).ok()) {
      std::printf(" %s", EvalModeToString(mode));
    }
  }
  std::printf("\n");
  if (query->fast_capture().has_value()) {
    std::printf("capture: compiled fast path (%zu projection(s))\n",
                query->fast_capture()->projections.size());
  } else {
    std::printf("capture: interpreted\n");
  }
  std::printf("output tables:");
  for (int pred : query->output_preds()) {
    std::printf(" %s/%d", query->pred(pred).name.c_str(),
                query->pred(pred).arity);
  }
  std::printf("\n");
  return 0;
}
