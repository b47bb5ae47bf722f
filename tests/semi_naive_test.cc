// Focused tests of the evaluator's incremental machinery: delta drivers,
// epoch-guarded watermarks (retention / aggregate rebuilds), existential
// subgoals, and incremental aggregates — the optimizations DESIGN.md §6
// calls out.

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "pql/analysis.h"
#include "pql/evaluator.h"
#include "pql/parser.h"

namespace ariadne {
namespace {

Value I(int64_t v) { return Value(v); }

AnalyzedQuery MustAnalyze(const std::string& text,
                          const StoreSchema* store = nullptr) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto q =
      Analyze(*program, Catalog::Default(), UdfRegistry::Default(), store);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  return std::move(q).value();
}

TEST(SemiNaiveTest, IncrementalInsertsAcrossManyRounds) {
  // Transitive closure grown edge by edge; every intermediate state must
  // be a correct closure of the inserted prefix.
  StoreSchema schema{{{"link", 2}}};
  AnalyzedQuery q = MustAnalyze(R"(
    reach(x, y) <- link(x, y).
    reach(x, z) <- reach(x, y), link(y, z).
  )",
                                &schema);
  Database db(&q);
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  const int link = q.PredId("link");
  const int reach = q.PredId("reach");
  // Chain 0 -> 1 -> ... -> 6 inserted one link per evaluation round.
  for (int64_t i = 0; i + 1 <= 6; ++i) {
    db.Rel(link).Insert({I(i), I(i + 1)});
    ASSERT_TRUE(eval.Evaluate(ctx).ok());
    // Closure of the prefix chain 0..i+1: (i+2 choose 2) pairs.
    const size_t n = static_cast<size_t>(i) + 2;
    EXPECT_EQ(db.RelIfExists(reach)->size(), n * (n - 1) / 2) << "after " << i;
  }
  EXPECT_TRUE(db.RelIfExists(reach)->Contains({I(0), I(6)}));
}

TEST(SemiNaiveTest, RetentionEpochForcesCorrectRescan) {
  // After RemoveIf rebuilds an input relation, the rule must rescan it
  // (row-index watermarks are invalid across epochs) without losing or
  // duplicating derivations.
  AnalyzedQuery q = MustAnalyze("p(x, i) <- superstep(x, i).");
  Database db(&q);
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  Relation& steps = db.Rel(q.PredId("superstep"));
  for (int64_t s = 0; s < 6; ++s) steps.Insert({I(1), I(s)});
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("p"))->size(), 6u);

  // Trim old rows (epoch bump), add a new one, re-evaluate.
  steps.RemoveIf(
      [](const Relation::RowView& row) { return row.AsInt(1) < 4; });
  steps.Insert({I(1), I(6)});
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  // Derived results persist; the new fact is picked up exactly once.
  EXPECT_EQ(db.RelIfExists(q.PredId("p"))->size(), 7u);
  EXPECT_TRUE(db.RelIfExists(q.PredId("p"))->Contains({I(1), I(6)}));
}

TEST(SemiNaiveTest, IncrementalAggregateTracksGrowingInput) {
  StoreSchema schema{{{"obs", 3}}};
  AnalyzedQuery q = MustAnalyze(
      "total(x, SUM(e)) <- obs(x, y, e).\n"
      "peers(x, COUNT(y)) <- obs(x, y, e).",
      &schema);
  Database db(&q);
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  const int obs = q.PredId("obs");
  db.Rel(obs).Insert({I(1), I(10), Value(0.5)});
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_TRUE(db.RelIfExists(q.PredId("total"))->Contains({I(1), Value(0.5)}));
  EXPECT_TRUE(db.RelIfExists(q.PredId("peers"))->Contains({I(1), I(1)}));

  // Incremental growth: old aggregate rows are replaced, not kept.
  db.Rel(obs).Insert({I(1), I(11), Value(0.25)});
  db.Rel(obs).Insert({I(1), I(10), Value(1.0)});  // same peer, new value
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  const Relation* total = db.RelIfExists(q.PredId("total"));
  EXPECT_EQ(total->size(), 1u);
  EXPECT_TRUE(total->Contains({I(1), Value(1.75)}));
  const Relation* peers = db.RelIfExists(q.PredId("peers"));
  EXPECT_EQ(peers->size(), 1u);
  EXPECT_TRUE(peers->Contains({I(1), I(2)}));  // distinct peers, not rows
}

TEST(SemiNaiveTest, IncrementalAggregateSurvivesInputRebuild) {
  StoreSchema schema{{{"obs", 3}}};
  AnalyzedQuery q = MustAnalyze("total(x, SUM(e)) <- obs(x, y, e).", &schema);
  Database db(&q);
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  Relation& obs = db.Rel(q.PredId("obs"));
  obs.Insert({I(1), I(10), Value(2.0)});
  obs.Insert({I(1), I(11), Value(3.0)});
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_TRUE(db.RelIfExists(q.PredId("total"))->Contains({I(1), Value(5.0)}));
  // Rebuild the input (epoch bump): persistent state must reset, not
  // double count.
  obs.RemoveIf([](const Relation::RowView& row) {
    return row.Equals(1, Value(int64_t{10}));
  });
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  const Relation* total = db.RelIfExists(q.PredId("total"));
  EXPECT_EQ(total->size(), 1u);
  EXPECT_TRUE(total->Contains({I(1), Value(3.0)}));
}

TEST(SemiNaiveTest, ExistentialFlagComputedForDeadWitnessVars) {
  // fwd-lineage style: the witness variables (w, j) of the recursive atom
  // are dead, so the planner marks that plan position existential.
  StoreSchema schema{{{"seen", 3}}};
  AnalyzedQuery q = MustAnalyze(R"(
    out(x, i) <- receive-message(x, y, m, i), seen(y, w, j).
  )",
                                &schema);
  const CompiledRule& rule = q.rules()[0];
  bool found_existential = false;
  for (size_t k = 0; k < rule.eval_order.size(); ++k) {
    const CLiteral& lit = rule.body[rule.eval_order[k]];
    if (lit.kind == CLiteral::Kind::kAtom &&
        q.pred(lit.pred).name == "seen") {
      EXPECT_EQ(rule.existential[k], 1);
      found_existential = true;
    }
  }
  EXPECT_TRUE(found_existential);

  // Evaluation with many witnesses derives the same single head tuple.
  Database db(&q);
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  for (int64_t j = 0; j < 50; ++j) {
    db.Rel(q.PredId("seen")).Insert({I(7), I(j), I(j)});
  }
  db.Rel(q.PredId("receive-message")).Insert({I(1), I(7), Value(0.5), I(3)});
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("out"))->size(), 1u);
}

TEST(SemiNaiveTest, HeadVariablesAreNeverExistential) {
  StoreSchema schema{{{"seen", 2}}};
  AnalyzedQuery q = MustAnalyze(
      "out(x, w) <- superstep(x, i), seen(x, w).", &schema);
  const CompiledRule& rule = q.rules()[0];
  for (size_t k = 0; k < rule.eval_order.size(); ++k) {
    const CLiteral& lit = rule.body[rule.eval_order[k]];
    if (lit.kind == CLiteral::Kind::kAtom &&
        q.pred(lit.pred).name == "seen") {
      // w flows into the head: every witness matters.
      EXPECT_EQ(rule.existential[k], 0);
    }
  }
  Database db(&q);
  EvalContext ctx;
  ctx.db = &db;
  RuleEvaluator eval(&q);
  db.Rel(q.PredId("superstep")).Insert({I(1), I(0)});
  db.Rel(q.PredId("seen")).Insert({I(1), I(10)});
  db.Rel(q.PredId("seen")).Insert({I(1), I(11)});
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("out"))->size(), 2u);
}

TEST(SemiNaiveTest, MaxStratumGatesEvaluation) {
  AnalyzedQuery q = MustAnalyze(R"(
    received(x, i) <- receive-message(x, y, m, i).
    quiet(x, i) <- superstep(x, i), !received(x, i).
  )");
  Database db(&q);
  db.Rel(q.PredId("superstep")).Insert({I(1), I(0)});
  RuleEvaluator eval(&q);
  EvalContext ctx;
  ctx.db = &db;
  ctx.max_stratum = 0;  // only the first stratum may run
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  const Relation* quiet = db.RelIfExists(q.PredId("quiet"));
  EXPECT_TRUE(quiet == nullptr || quiet->empty());
  // Raising the cap completes the evaluation.
  ctx.max_stratum = std::numeric_limits<int>::max();
  ASSERT_TRUE(eval.Evaluate(ctx).ok());
  EXPECT_EQ(db.RelIfExists(q.PredId("quiet"))->size(), 1u);
}

}  // namespace
}  // namespace ariadne
