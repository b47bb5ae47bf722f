#include <gtest/gtest.h>

#include <atomic>

#include "engine/engine.h"
#include "graph/generators.h"

namespace ariadne {
namespace {

/// Every vertex sends its id once; receivers record the sum of messages.
class SumOnceProgram final : public VertexProgram<int64_t, int64_t> {
 public:
  int64_t InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int64_t, int64_t>& ctx,
               std::span<const int64_t> messages) override {
    if (ctx.superstep() == 0) {
      ctx.SendToAllOutNeighbors(ctx.id());
    } else {
      int64_t sum = 0;
      for (int64_t m : messages) sum += m;
      ctx.SetValue(sum);
    }
    ctx.VoteToHalt();
  }
};

TEST(EngineTest, MessagesDeliveredNextSuperstepThenQuiesces) {
  auto g = GenerateCycle(4);
  ASSERT_TRUE(g.ok());
  Engine<int64_t, int64_t> engine(&*g);
  SumOnceProgram program;
  auto stats = engine.Run(program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->supersteps, 2);  // send step + receive step
  EXPECT_EQ(stats->total_messages, 4);
  EXPECT_FALSE(stats->halted_by_cap);
  for (VertexId v = 0; v < 4; ++v) {
    EXPECT_EQ(engine.value(v), (v + 3) % 4);  // id of the predecessor
  }
}

TEST(EngineTest, EmptyGraphRejected) {
  Graph g;
  Engine<int64_t, int64_t> engine(&g);
  SumOnceProgram program;
  EXPECT_FALSE(engine.Run(program).ok());
}

/// Propagates the minimum id along the cycle; needs n supersteps.
class MinPropagateProgram final : public VertexProgram<int64_t, int64_t> {
 public:
  int64_t InitialValue(VertexId id, const Graph&) const override { return id; }
  void Compute(VertexContext<int64_t, int64_t>& ctx,
               std::span<const int64_t> messages) override {
    int64_t best = ctx.value();
    for (int64_t m : messages) best = std::min(best, m);
    if (ctx.superstep() == 0 || best < ctx.value()) {
      ctx.SetValue(best);
      ctx.SendToAllOutNeighbors(best);
    }
    ctx.VoteToHalt();
  }
};

TEST(EngineTest, HaltedVerticesWakeOnMessages) {
  auto g = GenerateCycle(16);
  ASSERT_TRUE(g.ok());
  Engine<int64_t, int64_t> engine(&*g);
  MinPropagateProgram program;
  auto stats = engine.Run(program);
  ASSERT_TRUE(stats.ok());
  for (VertexId v = 0; v < 16; ++v) EXPECT_EQ(engine.value(v), 0);
  EXPECT_GE(stats->supersteps, 16);
}

TEST(EngineTest, MaxSuperstepsCapStopsEarly) {
  auto g = GenerateCycle(16);
  ASSERT_TRUE(g.ok());
  EngineOptions options;
  options.max_supersteps = 3;
  Engine<int64_t, int64_t> engine(&*g, options);
  MinPropagateProgram program;
  auto stats = engine.Run(program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->supersteps, 3);
  EXPECT_TRUE(stats->halted_by_cap);
}

TEST(EngineTest, PerStepStatsRecorded) {
  auto g = GenerateCycle(4);
  ASSERT_TRUE(g.ok());
  Engine<int64_t, int64_t> engine(&*g);
  SumOnceProgram program;
  auto stats = engine.Run(program);
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->steps.size(), 2u);
  EXPECT_EQ(stats->steps[0].active_vertices, 4);
  EXPECT_EQ(stats->steps[0].messages_sent, 4);
  EXPECT_EQ(stats->steps[1].messages_sent, 0);
}

/// Sends to an arbitrary (possibly invalid) vertex id.
class WildSenderProgram final : public VertexProgram<int64_t, int64_t> {
 public:
  explicit WildSenderProgram(VertexId target) : target_(target) {}
  int64_t InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int64_t, int64_t>& ctx,
               std::span<const int64_t> messages) override {
    if (ctx.superstep() == 0 && ctx.id() == 0) {
      ctx.SendMessage(target_, 99);
    }
    for (int64_t m : messages) ctx.SetValue(m);
    ctx.VoteToHalt();
  }

 private:
  VertexId target_;
};

TEST(EngineTest, MessagesToNonNeighborsAreDelivered) {
  auto g = GenerateChain(4);  // no edge 0 -> 3
  ASSERT_TRUE(g.ok());
  Engine<int64_t, int64_t> engine(&*g);
  WildSenderProgram program(3);
  ASSERT_TRUE(engine.Run(program).ok());
  EXPECT_EQ(engine.value(3), 99);
}

TEST(EngineTest, MessagesToInvalidIdsAreDropped) {
  auto g = GenerateChain(4);
  ASSERT_TRUE(g.ok());
  Engine<int64_t, int64_t> engine(&*g);
  WildSenderProgram program(1000);
  auto stats = engine.Run(program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->supersteps, 1);
}

/// Uses a min-combiner; inbox sizes must be 1.
class CombinerProbeProgram final : public VertexProgram<int64_t, int64_t> {
 public:
  int64_t InitialValue(VertexId, const Graph&) const override { return -1; }
  void Compute(VertexContext<int64_t, int64_t>& ctx,
               std::span<const int64_t> messages) override {
    if (ctx.superstep() == 0) {
      ctx.SendMessage(0, ctx.id() + 10);
    } else if (ctx.id() == 0 && !messages.empty()) {
      max_inbox_ = std::max(max_inbox_, messages.size());
      ctx.SetValue(messages[0]);
    }
    ctx.VoteToHalt();
  }
  const MessageCombiner<int64_t>* combiner() const override {
    return &combiner_;
  }
  size_t max_inbox() const { return max_inbox_; }

 private:
  MinCombiner<int64_t> combiner_;
  size_t max_inbox_ = 0;
};

TEST(EngineTest, CombinerReducesInbox) {
  auto g = GenerateStar(8);
  ASSERT_TRUE(g.ok());
  Engine<int64_t, int64_t> engine(&*g);
  CombinerProbeProgram program;
  ASSERT_TRUE(engine.Run(program).ok());
  EXPECT_EQ(program.max_inbox(), 1u);
  EXPECT_EQ(engine.value(0), 10);  // min over ids+10
}

/// Aggregates the count of active vertices; master halts at a target.
class AggregatorProgram final : public VertexProgram<int64_t, int64_t> {
 public:
  int64_t InitialValue(VertexId, const Graph&) const override { return 0; }
  void RegisterAggregators(AggregatorRegistry& registry) override {
    registry.Register("active", AggregateOp::kSum);
    registry.Register("max_id", AggregateOp::kMax);
  }
  void Compute(VertexContext<int64_t, int64_t>& ctx,
               std::span<const int64_t>) override {
    ctx.AggregateDouble("active", 1.0);
    ctx.AggregateDouble("max_id", static_cast<double>(ctx.id()));
    if (ctx.superstep() == 1) {
      // Aggregated values from superstep 0 are visible now.
      EXPECT_DOUBLE_EQ(ctx.GetAggregate("active"),
                       static_cast<double>(ctx.num_vertices()));
      EXPECT_DOUBLE_EQ(ctx.GetAggregate("max_id"),
                       static_cast<double>(ctx.num_vertices() - 1));
    }
    // Stay alive; the master halts us.
  }
  void MasterCompute(MasterContext& master) override {
    if (master.superstep >= 1) master.halt = true;
  }
};

TEST(EngineTest, AggregatorsVisibleNextSuperstepAndMasterHalts) {
  auto g = GenerateCycle(6);
  ASSERT_TRUE(g.ok());
  Engine<int64_t, int64_t> engine(&*g);
  AggregatorProgram program;
  auto stats = engine.Run(program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->supersteps, 2);
}

TEST(EngineTest, ParallelMatchesSequential) {
  auto g = GenerateErdosRenyi(200, 1000, 17);
  ASSERT_TRUE(g.ok());
  EngineOptions options;
  options.num_threads = 1;
  Engine<int64_t, int64_t> seq(&*g, options);
  MinPropagateProgram p1;
  ASSERT_TRUE(seq.Run(p1).ok());
  options.num_threads = 4;
  Engine<int64_t, int64_t> par(&*g, options);
  MinPropagateProgram p2;
  ASSERT_TRUE(par.Run(p2).ok());
  for (VertexId v = 0; v < g->num_vertices(); ++v) {
    EXPECT_EQ(seq.value(v), par.value(v));
  }
}

}  // namespace
}  // namespace ariadne
