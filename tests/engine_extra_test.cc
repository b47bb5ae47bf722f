#include <gtest/gtest.h>

#include "engine/aggregators.h"
#include "analytics/sssp.h"
#include "engine/engine.h"
#include "graph/generators.h"

namespace ariadne {
namespace {

// ---------------------------------------------------- AggregatorRegistry

TEST(AggregatorRegistryTest, SumMinMaxIdentitiesAndFolds) {
  AggregatorRegistry registry;
  registry.Register("sum", AggregateOp::kSum);
  registry.Register("min", AggregateOp::kMin);
  registry.Register("max", AggregateOp::kMax);
  EXPECT_TRUE(registry.Has("sum"));
  EXPECT_FALSE(registry.Has("nope"));

  registry.Accumulate("sum", 2.0);
  registry.Accumulate("sum", 3.0);
  registry.Accumulate("min", 5.0);
  registry.Accumulate("min", -1.0);
  registry.Accumulate("max", 5.0);
  registry.Accumulate("max", 9.0);
  // Values are published only at the superstep barrier.
  EXPECT_EQ(registry.Get("sum"), 0.0);
  registry.EndSuperstep();
  EXPECT_EQ(registry.Get("sum"), 5.0);
  EXPECT_EQ(registry.Get("min"), -1.0);
  EXPECT_EQ(registry.Get("max"), 9.0);
  // Next superstep with no accumulation publishes the identities.
  registry.EndSuperstep();
  EXPECT_EQ(registry.Get("sum"), 0.0);
  EXPECT_EQ(registry.Get("min"), std::numeric_limits<double>::infinity());
  EXPECT_EQ(registry.Get("max"), -std::numeric_limits<double>::infinity());
}

TEST(AggregatorRegistryTest, ReRegisterResetsAndResetClears) {
  AggregatorRegistry registry;
  registry.Register("a", AggregateOp::kSum);
  registry.Accumulate("a", 4.0);
  registry.Register("a", AggregateOp::kSum);  // reset
  registry.EndSuperstep();
  EXPECT_EQ(registry.Get("a"), 0.0);
  registry.Reset();
  EXPECT_FALSE(registry.Has("a"));
}

// ------------------------------------------------------------- combiners

TEST(CombinerTest, BuiltinsCombineAsDocumented) {
  MinCombiner<double> min_combiner;
  MaxCombiner<double> max_combiner;
  SumCombiner<double> sum_combiner;
  EXPECT_EQ(min_combiner.Combine(2.0, 5.0), 2.0);
  EXPECT_EQ(max_combiner.Combine(2.0, 5.0), 5.0);
  EXPECT_EQ(sum_combiner.Combine(2.0, 5.0), 7.0);
}

/// Sums all messages received over a run under a sum-combiner.
class SumAllProgram final : public VertexProgram<double, double> {
 public:
  double InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<double, double>& ctx,
               std::span<const double> messages) override {
    double sum = ctx.value();
    for (double m : messages) sum += m;
    ctx.SetValue(sum);
    if (ctx.superstep() == 0) ctx.SendMessage(0, 1.0);
    ctx.VoteToHalt();
  }
  const MessageCombiner<double>* combiner() const override {
    return &combiner_;
  }

 private:
  SumCombiner<double> combiner_;
};

TEST(CombinerTest, SumCombinerPreservesTotals) {
  auto g = GenerateStar(16);
  ASSERT_TRUE(g.ok());
  Engine<double, double> engine(&*g);
  SumAllProgram program;
  ASSERT_TRUE(engine.Run(program).ok());
  EXPECT_DOUBLE_EQ(engine.value(0), 16.0);  // every vertex contributed 1.0
}

// ------------------------------------------------------------ engine reuse

class PingProgram final : public VertexProgram<int64_t, int64_t> {
 public:
  int64_t InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int64_t, int64_t>& ctx,
               std::span<const int64_t> messages) override {
    ctx.SetValue(ctx.value() + static_cast<int64_t>(messages.size()));
    if (ctx.superstep() == 0) ctx.SendToAllOutNeighbors(1);
    ctx.VoteToHalt();
  }
};

TEST(EngineReuseTest, SecondRunStartsFresh) {
  auto g = GenerateCycle(8);
  ASSERT_TRUE(g.ok());
  Engine<int64_t, int64_t> engine(&*g);
  PingProgram program;
  ASSERT_TRUE(engine.Run(program).ok());
  const int64_t first = engine.value(3);
  ASSERT_TRUE(engine.Run(program).ok());
  EXPECT_EQ(engine.value(3), first);  // identical, not accumulated
}

// ------------------------------------------------- thread-count sweep

class ThreadSweepTest : public testing::TestWithParam<size_t> {};

TEST_P(ThreadSweepTest, SsspIdenticalAcrossThreadCounts) {
  auto g = GenerateRmat({.scale = 8, .avg_degree = 6, .seed = 77});
  ASSERT_TRUE(g.ok());
  EngineOptions options;
  options.num_threads = 1;
  Engine<double, double> reference_engine(&*g, options);
  SsspProgram reference(0);
  ASSERT_TRUE(reference_engine.Run(reference).ok());

  options.num_threads = GetParam();
  Engine<double, double> engine(&*g, options);
  SsspProgram program(0);
  ASSERT_TRUE(engine.Run(program).ok());
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(engine.value(v), reference_engine.value(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadSweepTest,
                         testing::Values(size_t{2}, size_t{3}, size_t{8}));

}  // namespace
}  // namespace ariadne
