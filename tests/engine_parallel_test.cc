// Determinism of the sharded owner-computes engine (DESIGN.md §2): vertex
// values, run statistics, and captured provenance must be identical —
// bit-for-bit — for any thread count, chunk size, shard multiplier, and
// routing mode. CI also runs this binary under ThreadSanitizer (the
// `tsan` preset) to keep the lock-free merge phase race-clean.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/ariadne.h"

namespace ariadne {
namespace {

Graph TestWeb() {
  auto g = GenerateRmat({.scale = 8, .avg_degree = 8, .seed = 1234});
  ARIADNE_CHECK(g.ok());
  return std::move(*g);
}

template <typename P, typename MakeProgram>
std::vector<typename P::ValueType> RunWith(const Graph& g, EngineOptions options,
                                           MakeProgram make) {
  Engine<typename P::ValueType, typename P::MessageType> engine(&g, options);
  P program = make();
  auto stats = engine.Run(program);
  ARIADNE_CHECK(stats.ok());
  return {engine.values().begin(), engine.values().end()};
}

// ----------------------------------------- values identical across threads

class ThreadCountTest : public testing::TestWithParam<size_t> {};

TEST_P(ThreadCountTest, PageRankBitIdentical) {
  const Graph g = TestWeb();
  EngineOptions reference;
  auto ref = RunWith<PageRankProgram>(g, reference, [] {
    return PageRankProgram({.iterations = 10});
  });
  EngineOptions options;
  options.num_threads = GetParam();
  auto values = RunWith<PageRankProgram>(g, options, [] {
    return PageRankProgram({.iterations = 10});
  });
  ASSERT_EQ(values.size(), ref.size());
  for (size_t v = 0; v < ref.size(); ++v) {
    // EXPECT_EQ, not EXPECT_NEAR: delivery order is serial order for any
    // thread count, so the floating-point folds are bit-identical.
    EXPECT_EQ(values[v], ref[v]) << "vertex " << v;
  }
}

TEST_P(ThreadCountTest, PageRankWithAggregatorBitIdentical) {
  // redistribute_dangling folds a global double aggregator back into every
  // rank: exercises the chunk-ordered aggregator fold.
  const Graph g = TestWeb();
  PageRankOptions pr{.iterations = 8, .redistribute_dangling = true};
  auto ref = RunWith<PageRankProgram>(g, EngineOptions{},
                                      [&] { return PageRankProgram(pr); });
  EngineOptions options;
  options.num_threads = GetParam();
  auto values = RunWith<PageRankProgram>(g, options,
                                         [&] { return PageRankProgram(pr); });
  for (size_t v = 0; v < ref.size(); ++v) {
    EXPECT_EQ(values[v], ref[v]) << "vertex " << v;
  }
}

TEST_P(ThreadCountTest, SsspIdenticalWithAndWithoutCombiner) {
  const Graph g = TestWeb();
  for (bool use_combiner : {false, true}) {
    auto ref = RunWith<SsspProgram>(g, EngineOptions{}, [&] {
      return SsspProgram(0, use_combiner);
    });
    EngineOptions options;
    options.num_threads = GetParam();
    auto values = RunWith<SsspProgram>(g, options, [&] {
      return SsspProgram(0, use_combiner);
    });
    for (size_t v = 0; v < ref.size(); ++v) {
      EXPECT_EQ(values[v], ref[v])
          << "vertex " << v << " combiner=" << use_combiner;
    }
  }
}

TEST_P(ThreadCountTest, WccIdenticalAcrossChunkAndShardGeometry) {
  const Graph g = TestWeb();
  auto ref = RunWith<WccProgram>(g, EngineOptions{}, [] { return WccProgram(); });
  for (size_t chunk_size : {size_t{1}, size_t{64}, size_t{4096}}) {
    for (size_t shard_multiplier : {size_t{1}, size_t{7}}) {
      EngineOptions options;
      options.num_threads = GetParam();
      options.chunk_size = chunk_size;
      options.shard_multiplier = shard_multiplier;
      auto values = RunWith<WccProgram>(g, options, [] { return WccProgram(); });
      for (size_t v = 0; v < ref.size(); ++v) {
        ASSERT_EQ(values[v], ref[v])
            << "vertex " << v << " chunk=" << chunk_size
            << " shards/worker=" << shard_multiplier;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountTest,
                         testing::Values(size_t{2}, size_t{4}, size_t{8}));

// -------------------------------------------------- dropped-message stats

/// Vertex 0 sends one message to a configurable (possibly invalid) target
/// every superstep 0; everyone else stays quiet.
class WildSenderProgram final : public VertexProgram<int64_t, int64_t> {
 public:
  explicit WildSenderProgram(std::vector<VertexId> targets)
      : targets_(std::move(targets)) {}
  int64_t InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int64_t, int64_t>& ctx,
               std::span<const int64_t> messages) override {
    if (ctx.superstep() == 0 && ctx.id() == 0) {
      for (VertexId t : targets_) ctx.SendMessage(t, 7);
    }
    for (int64_t m : messages) ctx.SetValue(ctx.value() + m);
    ctx.VoteToHalt();
  }

 private:
  std::vector<VertexId> targets_;
};

TEST(DroppedMessageTest, OutOfRangeTargetsAreCountedNotSilent) {
  auto g = GenerateChain(4);
  ASSERT_TRUE(g.ok());
  EngineOptions options;
  options.num_threads = 2;
  Engine<int64_t, int64_t> engine(&*g, options);
  WildSenderProgram program({-1, 2, 1000, 3});
  auto stats = engine.Run(program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->dropped_messages, 2);  // -1 and 1000
  EXPECT_EQ(stats->total_messages, 4);    // drops still count as sends
  EXPECT_EQ(engine.value(2), 7);
  EXPECT_EQ(engine.value(3), 7);
}

TEST(DroppedMessageTest, CleanRunReportsZero) {
  auto g = GenerateCycle(8);
  ASSERT_TRUE(g.ok());
  Engine<int64_t, int64_t> engine(&*g);
  WildSenderProgram program({1});
  auto stats = engine.Run(program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->dropped_messages, 0);
}

// ------------------------------------------------------ combiner plumbing

/// Every vertex sends its id to vertex 0; vertex 0 sums what it receives.
/// Under a SumCombiner the inbox collapses to one message but the sum is
/// exact (integer payloads), for any chunk/shard/thread geometry.
class FanInProgram final : public VertexProgram<int64_t, int64_t> {
 public:
  int64_t InitialValue(VertexId, const Graph&) const override { return 0; }
  void Compute(VertexContext<int64_t, int64_t>& ctx,
               std::span<const int64_t> messages) override {
    if (ctx.superstep() == 0) {
      ctx.SendMessage(0, ctx.id());
    } else {
      int64_t sum = 0;
      for (int64_t m : messages) sum += m;
      ctx.SetValue(sum);
      max_inbox_ = std::max(max_inbox_, messages.size());
    }
    ctx.VoteToHalt();
  }
  const MessageCombiner<int64_t>* combiner() const override {
    return &combiner_;
  }
  size_t max_inbox() const { return max_inbox_; }

 private:
  SumCombiner<int64_t> combiner_;
  size_t max_inbox_ = 0;
};

TEST(CombineStatsTest, SenderAndOwnerCombiningBothHit) {
  auto g = GenerateCycle(64);
  ASSERT_TRUE(g.ok());
  const int64_t expected = 64 * 63 / 2;
  EngineOptions options;
  options.num_threads = 4;
  options.chunk_size = 8;  // 8 chunks: forces cross-chunk owner combining
  Engine<int64_t, int64_t> engine(&*g, options);
  FanInProgram program;
  auto stats = engine.Run(program);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(engine.value(0), expected);
  EXPECT_EQ(program.max_inbox(), 1u);
  // All 64 vertices send (vertex 0 includes itself); 64 messages fold
  // into 1 delivered message: 63 combine hits, split between the sender
  // side (within each chunk) and the owner merge (across the 8 chunks).
  EXPECT_EQ(stats->combine_hits, 63);
}

// ------------------------------------------- provenance byte determinism

std::string CaptureBytes(const Graph& g, size_t threads) {
  SessionOptions session_options;
  session_options.engine.num_threads = threads;
  session_options.engine.chunk_size = 32;  // many chunks even on small graphs
  Session session(&g, session_options);
  auto query = session.PrepareOnline(queries::CaptureFull());
  ARIADNE_CHECK(query.ok());
  ProvenanceStore store;
  SsspProgram sssp(0);
  ARIADNE_CHECK(session.Capture(sssp, *query, &store).ok());
  BinaryWriter writer;
  SerializeLayer(store.static_data(), writer);
  for (int i = 0; i < store.num_layers(); ++i) {
    auto layer = store.GetLayerRelations(i, {});
    ARIADNE_CHECK(layer.ok());
    SerializeLayer(**layer, writer);
  }
  return writer.MoveData();
}

TEST(CaptureDeterminismTest, FullCaptureBytesIdenticalAcrossThreadCounts) {
  const Graph g = TestWeb();
  const std::string reference = CaptureBytes(g, 1);
  ASSERT_FALSE(reference.empty());
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    EXPECT_EQ(CaptureBytes(g, threads), reference) << "threads=" << threads;
  }
}

// ----------------------------------------------------- per-phase timings

TEST(PhaseStatsTest, ShardedRunsRecordPhaseTimings) {
  const Graph g = TestWeb();
  EngineOptions options;
  options.num_threads = 2;
  Engine<double, double> engine(&g, options);
  PageRankProgram program({.iterations = 5});
  auto stats = engine.Run(program);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->compute_seconds, 0.0);
  EXPECT_GT(stats->merge_seconds, 0.0);
  ASSERT_FALSE(stats->steps.empty());
  for (const auto& step : stats->steps) {
    EXPECT_GE(step.seconds, step.compute_seconds + step.merge_seconds);
  }
}

}  // namespace
}  // namespace ariadne
