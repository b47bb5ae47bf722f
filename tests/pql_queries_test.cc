// Golden classification of every paper query (1-12): the analyzer must
// label each exactly as the paper's theory predicts, since the labels
// gate which evaluation modes Ariadne may use (§5).

#include <gtest/gtest.h>

#include "eval/common.h"
#include "pql/analysis.h"
#include "pql/parser.h"
#include "pql/queries.h"

namespace ariadne {
namespace {

struct GoldenCase {
  std::string name;
  std::string text;
  std::vector<std::pair<std::string, Value>> params;
  Direction direction = Direction::kLocal;
  bool online_ok = true;
  bool fast_capture = false;
  std::vector<std::string> shipped;
  bool offline_context = false;
};

class PaperQueryTest : public testing::TestWithParam<GoldenCase> {};

TEST_P(PaperQueryTest, ClassifiedExactlyAsThePaperRequires) {
  const GoldenCase& c = GetParam();
  auto program = ParseProgram(c.text);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  if (!c.params.empty()) {
    ASSERT_TRUE(program->BindParameters(c.params).ok());
  }
  AnalyzeOptions options;
  options.allow_transient = !c.offline_context;
  StoreSchema schema;
  schema.relations = {{"prov-value", 3}, {"prov-send", 2}, {"prov-edges", 2},
                      {"value", 3},      {"send-message", 4},
                      {"receive-message", 4}, {"superstep", 2},
                      {"evolution", 3}};
  auto query = Analyze(*program, Catalog::Default(), UdfRegistry::Default(),
                       c.offline_context ? &schema : nullptr, options);
  ASSERT_TRUE(query.ok()) << c.name << ": " << query.status().ToString();

  EXPECT_EQ(query->direction(), c.direction) << c.name;
  EXPECT_TRUE(query->vc_compatible()) << c.name;
  EXPECT_EQ(ValidateMode(*query, EvalMode::kOnline).ok(), c.online_ok)
      << c.name;
  EXPECT_TRUE(ValidateMode(*query, EvalMode::kLayered).ok()) << c.name;
  EXPECT_TRUE(ValidateMode(*query, EvalMode::kNaive).ok()) << c.name;
  EXPECT_EQ(query->fast_capture().has_value(), c.fast_capture) << c.name;

  std::vector<std::string> shipped;
  for (int pred : query->shipped_preds()) {
    shipped.push_back(query->pred(pred).name);
  }
  EXPECT_EQ(shipped, c.shipped) << c.name;
}

std::vector<GoldenCase> PaperQueries() {
  const std::vector<std::pair<std::string, Value>> eps{{"eps", Value(0.01)}};
  const std::vector<std::pair<std::string, Value>> trace{
      {"alpha", Value(int64_t{1})}, {"sigma", Value(int64_t{3})}};
  return {
      {"q1_apt", queries::Apt(), eps, Direction::kForward, true, false,
       {"change"}, false},
      {"q2_capture_full", queries::CaptureFull(), {}, Direction::kLocal,
       true, true, {}, false},
      {"q3_capture_lineage", queries::CaptureForwardLineage(),
       {{"alpha", Value(int64_t{0})}}, Direction::kForward, true, false,
       {"fwd-lineage"}, false},
      {"q4_indegree", queries::PageRankInDegreeCheck(), {},
       Direction::kLocal, true, false, {}, false},
      {"q5_monotone", queries::MonotoneUpdateCheck(), {}, Direction::kLocal,
       true, false, {}, false},
      {"q6_no_msg_no_change", queries::NoMessageNoChangeCheck(), {},
       Direction::kLocal, true, false, {}, false},
      {"q7_als_audit", queries::AlsRangeAudit(), {}, Direction::kLocal, true,
       false, {}, false},
      {"q8_als_error", queries::AlsErrorIncrease(), eps, Direction::kLocal,
       true, false, {}, false},
      {"q10_backward_full", queries::BackwardLineageFull(), trace,
       Direction::kBackward, false, false, {"back-trace"}, true},
      {"q11_capture_custom", queries::CaptureCustomBackward(), {},
       Direction::kLocal, true, true, {}, false},
      {"q12_backward_custom", queries::BackwardLineageCustom(), trace,
       Direction::kBackward, false, false, {"back-trace"}, true},
  };
}

INSTANTIATE_TEST_SUITE_P(Paper, PaperQueryTest,
                         testing::ValuesIn(PaperQueries()),
                         [](const testing::TestParamInfo<GoldenCase>& info) {
                           return info.param.name;
                         });

TEST(PaperQueryShipRouting, ForwardShipsRideMessagesBackwardReversed) {
  auto check = [](const std::string& text,
                  const std::vector<std::pair<std::string, Value>>& params,
                  const std::string& pred, ShipRouting routing,
                  bool offline) {
    auto program = ParseProgram(text);
    ASSERT_TRUE(program.ok());
    if (!params.empty()) {
      ASSERT_TRUE(program->BindParameters(params).ok());
    }
    StoreSchema schema;
    schema.relations = {{"prov-value", 3}, {"prov-send", 2},
                        {"prov-edges", 2}, {"value", 3},
                        {"send-message", 4}, {"superstep", 2}};
    AnalyzeOptions options;
    options.allow_transient = !offline;
    auto query = Analyze(*program, Catalog::Default(),
                         UdfRegistry::Default(), offline ? &schema : nullptr,
                         options);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    const int id = query->PredId(pred);
    ASSERT_GE(id, 0);
    EXPECT_TRUE(query->pred(id).shipped);
    EXPECT_EQ(query->pred(id).routing, routing);
  };
  const std::vector<std::pair<std::string, Value>> trace{
      {"alpha", Value(int64_t{1})}, {"sigma", Value(int64_t{3})}};
  check(queries::Apt(), {{"eps", Value(0.01)}}, "change",
        ShipRouting::kAlongMessages, false);
  check(queries::BackwardLineageFull(), trace, "back-trace",
        ShipRouting::kAlongReverseMessages, true);
  check(queries::BackwardLineageCustom(), trace, "back-trace",
        ShipRouting::kAlongInEdges, true);
}

}  // namespace
}  // namespace ariadne
