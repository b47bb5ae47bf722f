// End-to-end tests of the storage subsystem under capture: a tiny memory
// budget that forces eviction every superstep must not change anything
// observable — the saved image is byte-identical to an unbounded run, and
// layered queries return identical results while staying under budget.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "core/ariadne.h"

namespace ariadne {
namespace {

std::vector<std::string> TableStrings(const QueryResult& result,
                                      const std::string& name) {
  const Relation* rel = result.Table(name);
  if (rel == nullptr) return {};
  return rel->ToSortedStrings();
}

class StorageCaptureTest : public testing::Test {
 protected:
  void SetUp() override {
    // An 8x8 grid: SSSP frontiers are wide, so no single layer dominates
    // the store (peak layer ~11% of total bytes — comfortably inside the
    // 25% memory budget the acceptance bar prescribes).
    auto g = GenerateGrid(8, 8);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
    std::error_code ec;
    std::filesystem::create_directories(testing::TempDir() +
                                            "/storage_capture",
                                        ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  std::string Dir(const std::string& name) {
    return testing::TempDir() + "/storage_capture/" + name;
  }

  /// Runs a full SSSP capture; optionally spilling with `budget` bytes
  /// and `flush_threads`, with `engine_threads` compute workers.
  void CaptureStore(ProvenanceStore* store, const std::string& spill_dir,
                    size_t budget, int flush_threads, size_t engine_threads) {
    SessionOptions options;
    options.engine.num_threads = engine_threads;
    Session session(&graph_, options);
    auto capture = session.PrepareOnline(queries::CaptureFull());
    ASSERT_TRUE(capture.ok()) << capture.status().ToString();
    if (!spill_dir.empty()) {
      storage::LayerStoreOptions storage_options;
      storage_options.dir = spill_dir;
      storage_options.mem_budget_bytes = budget;
      storage_options.flush_threads = flush_threads;
      ASSERT_TRUE(store->ConfigureStorage(std::move(storage_options)).ok());
    }
    SsspProgram sssp(0);
    auto stats = session.Capture(sssp, *capture, store);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_GT(store->num_layers(), 4);
  }

  Result<std::string> SaveBytes(const ProvenanceStore& store,
                                const std::string& path) {
    ARIADNE_RETURN_NOT_OK(store.SaveToFile(path));
    return ReadFile(path);
  }

  Graph graph_;
};

TEST_F(StorageCaptureTest, TinyBudgetSaveIsByteIdenticalAcrossThreadCounts) {
  // Reference: unbounded in-memory capture, single-threaded engine.
  ProvenanceStore reference;
  CaptureStore(&reference, "", 0, 0, 1);
  ASSERT_EQ(reference.SpilledLayerCount(), 0);
  auto want = SaveBytes(reference, Dir("ref") + ".bin");
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // A ~one-layer budget forces eviction at every superstep barrier.
  const size_t budget = reference.TotalBytes() / reference.num_layers();
  int variant = 0;
  for (size_t engine_threads : {size_t{1}, size_t{4}}) {
    // flush_threads = 0 flushes inline on the appending barrier thread.
    for (int flush_threads : {0, 1, 2}) {
      SCOPED_TRACE("engine_threads=" + std::to_string(engine_threads) +
                   " flush_threads=" + std::to_string(flush_threads));
      ProvenanceStore store;
      std::string variant_name = "v";
      variant_name += std::to_string(variant++);
      const std::string dir = Dir(variant_name);
      CaptureStore(&store, dir, budget, flush_threads, engine_threads);
      EXPECT_GT(store.SpilledLayerCount(), 0);
      EXPECT_LE(store.InMemoryBytes(), reference.TotalBytes());
      const auto stats = store.storage_stats();
      EXPECT_EQ(stats.layers_flushed,
                static_cast<uint64_t>(store.num_layers()));
      EXPECT_LT(stats.CompressionRatio(), 1.0);
      auto got = SaveBytes(store, dir + ".bin");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *want) << "saved image differs under spill";
    }
  }
}

TEST_F(StorageCaptureTest, SpilledImageMatchesHeldBatchImage) {
  // Every layer is spilled and keeps its batch: the image is encoded
  // from the batches.
  ProvenanceStore held;
  CaptureStore(&held, Dir("held"), size_t{1} << 30, 1, 1);
  ASSERT_EQ(held.SpilledLayerCount(), 0);
  auto want = held.SerializeToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // Budget 0: every batch is gone after its flush, and the image is
  // written from the spilled pages.
  ProvenanceStore spilled;
  CaptureStore(&spilled, Dir("spilled"), 0, 1, 1);
  ASSERT_EQ(spilled.SpilledLayerCount(), spilled.num_layers());
  const uint64_t read_before = spilled.storage_stats().pages_read;
  auto got = spilled.SerializeToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *want) << "image of spilled layers differs";
  const auto stats = spilled.storage_stats();
  EXPECT_EQ(stats.pages_read - read_before, stats.pages_written);
}

TEST_F(StorageCaptureTest, BackwardLayeredQueryUnderBudgetMatchesUnbounded) {
  SessionOptions options;
  Session session(&graph_, options);

  ProvenanceStore unbounded;
  CaptureStore(&unbounded, "", 0, 0, 1);
  // Trace the far corner of the grid back from the last superstep.
  QueryParams params{
      {"alpha", Value(static_cast<int64_t>(graph_.num_vertices() - 1))},
      {"sigma", Value(static_cast<int64_t>(unbounded.num_layers() - 1))}};
  auto q10 = session.PrepareOffline(queries::BackwardLineageFull(), unbounded,
                                    params);
  ASSERT_TRUE(q10.ok()) << q10.status().ToString();
  ASSERT_EQ(q10->direction(), Direction::kBackward);
  auto want = session.RunOffline(&unbounded, *q10, EvalMode::kLayered);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  // Budget <= 25% of the total provenance bytes (the acceptance bar).
  const size_t budget = unbounded.TotalBytes() / 4;
  ProvenanceStore bounded;
  CaptureStore(&bounded, Dir("bounded"), budget, 2, 4);
  EXPECT_GT(bounded.SpilledLayerCount(), 0);

  auto got = session.RunOffline(&bounded, *q10, EvalMode::kLayered);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  for (const char* table : {"back-trace", "back-lineage"}) {
    EXPECT_EQ(TableStrings(got->result, table),
              TableStrings(want->result, table));
  }
  // Peak decoded layer bytes stayed under the budget...
  EXPECT_LE(got->stats.peak_layer_bytes, budget);
  // ...and the descending pass prefetched the next-lower layers.
  const auto stats = bounded.storage_stats();
  EXPECT_GT(stats.prefetch_requests, 0u);
  EXPECT_GT(stats.pages_read, 0u);

  // Naive evaluation over the bounded store agrees too (it walks layers
  // ascending through the same storage path).
  auto naive = session.RunOffline(&bounded, *q10, EvalMode::kNaive);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(TableStrings(naive->result, "back-lineage"),
            TableStrings(want->result, "back-lineage"));
}

}  // namespace
}  // namespace ariadne
