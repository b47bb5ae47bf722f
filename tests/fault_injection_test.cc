// Deterministic fault injection over the failure-policy ladder
// (DESIGN.md §2.4): transient I/O errors are retried with backoff,
// exhausted flushes are quarantined and requeued once, a second
// exhaustion degrades capture per policy instead of killing the
// analytic, and offline evaluation refuses full-history queries over a
// degraded capture with a clear error.

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ariadne.h"
#include "engine/engine.h"
#include "graph/paged_backend.h"
#include "recovery/fault_injector.h"
#include "serve/service_state.h"
#include "storage/layer_store.h"

namespace ariadne {
namespace {

Layer MakeLayer(Superstep step, int rel, int n_vertices) {
  Layer layer;
  layer.step = step;
  for (int v = 0; v < n_vertices; ++v) {
    layer.Add(rel, v,
              {{Value(int64_t{v}), Value(static_cast<int64_t>(step)),
                Value(0.5 * v)}});
  }
  return layer;
}

class FaultInjectionTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/fault_injection";
    std::filesystem::remove_all(dir_);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    ASSERT_FALSE(ec) << ec.message();
    recovery::FaultInjector::Global().Disarm();
  }

  void TearDown() override {
    recovery::FaultInjector::Global().Disarm();
    std::filesystem::remove_all(dir_);
  }

  storage::LayerStoreOptions FastRetryOptions(const std::string& subdir) {
    storage::LayerStoreOptions options;
    options.dir = dir_ + "/" + subdir;
    options.flush_threads = 1;
    options.io_max_attempts = 3;
    options.io_backoff_base_ms = 0.01;  // keep tests fast
    return options;
  }

  std::string dir_;
};

TEST_F(FaultInjectionTest, TransientFlushErrorIsRetriedAndRecovers) {
  storage::LayerStore store;
  ASSERT_TRUE(store.Configure(FastRetryOptions("retry")).ok());
  // Exactly one injected failure: attempt 1 fails, attempt 2 succeeds.
  ASSERT_TRUE(recovery::FaultInjector::Global().Arm("flusher-write:1").ok());
  ASSERT_TRUE(
      store.Append(std::make_shared<const Layer>(MakeLayer(0, 0, 40))).ok());
  const Status drained = store.Drain();
  EXPECT_TRUE(drained.ok()) << drained.ToString();
  const storage::StorageStats stats = store.stats();
  EXPECT_GE(stats.flush_retries, 1u);
  EXPECT_EQ(stats.layers_flushed, 1u);
  EXPECT_EQ(stats.layers_quarantined, 0u);
  EXPECT_FALSE(stats.degraded);
}

TEST_F(FaultInjectionTest, ExhaustedFlushQuarantinesThenSticks) {
  storage::LayerStore store;
  ASSERT_TRUE(store.Configure(FastRetryOptions("quarantine")).ok());
  // Persistent failure: 3 attempts, quarantine + requeue, 3 more
  // attempts, then the error sticks.
  ASSERT_TRUE(recovery::FaultInjector::Global().Arm("flusher-write:1+").ok());
  ASSERT_TRUE(
      store.Append(std::make_shared<const Layer>(MakeLayer(0, 0, 40))).ok());
  const Status drained = store.Drain();
  EXPECT_FALSE(drained.ok());
  EXPECT_NE(drained.message().find("quarantine"), std::string::npos)
      << drained.ToString();
  const storage::StorageStats stats = store.stats();
  EXPECT_EQ(stats.layers_quarantined, 1u);
  EXPECT_GE(stats.flush_retries, 4u);  // 2 per exhausted pass
  EXPECT_EQ(stats.layers_flushed, 0u);

  // The poisoned layer was never lost: it is still readable (resident).
  auto layer = store.Read(0);
  ASSERT_TRUE(layer.ok()) << layer.status().ToString();
  EXPECT_EQ((*layer)->step, 0);

  // Degraded mode is the escape hatch: appends and drains work again.
  store.EnterDegradedMode();
  EXPECT_TRUE(store.degraded());
  EXPECT_FALSE(store.flush_error().ok());  // the reason is preserved
  ASSERT_TRUE(
      store.Append(std::make_shared<const Layer>(MakeLayer(1, 0, 40))).ok());
  EXPECT_TRUE(store.Drain().ok());
  EXPECT_EQ(store.num_layers(), 2);
}

TEST_F(FaultInjectionTest, TransientPageReadErrorIsRetried) {
  storage::LayerStore store;
  // Zero budget: everything spills, nothing stays resident or cached.
  ASSERT_TRUE(store.Configure(FastRetryOptions("pageread")).ok());
  ASSERT_TRUE(
      store.Append(std::make_shared<const Layer>(MakeLayer(0, 0, 40))).ok());
  ASSERT_TRUE(store.Drain().ok());
  ASSERT_EQ(store.SpilledCount(), 1);

  ASSERT_TRUE(recovery::FaultInjector::Global().Arm("page-read:1").ok());
  auto layer = store.Read(0);
  ASSERT_TRUE(layer.ok()) << layer.status().ToString();
  EXPECT_EQ((*layer)->step, 0);
  EXPECT_GE(store.stats().read_retries, 1u);
}

class DegradedCaptureTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    FaultInjectionTest::SetUp();
    auto g = GenerateGrid(8, 8);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
  }

  /// SSSP capture with a spill-configured store whose every flush fails.
  Result<RunStats> CaptureWithBrokenSpill(ProvenanceStore* store,
                                          CaptureDegradePolicy policy) {
    Session session(&graph_);
    ARIADNE_ASSIGN_OR_RETURN(AnalyzedQuery query,
                             session.PrepareOnline(queries::CaptureFull()));
    storage::LayerStoreOptions options = FastRetryOptions("degrade");
    // No write-behind allowance: Append blocks until the flusher has
    // settled, so the exhausted-retry error reaches the program at a
    // barrier deterministically instead of only at the final Flush.
    options.max_unflushed_bytes = 0;
    ARIADNE_RETURN_NOT_OK(store->ConfigureStorage(std::move(options)));
    ARIADNE_RETURN_NOT_OK(
        recovery::FaultInjector::Global().Arm("flusher-write:1+"));
    SsspProgram sssp(0);
    return session.Capture(sssp, query, store, /*retention_window=*/2,
                           nullptr, /*use_fast_capture=*/true, policy);
  }

  /// A layered-evaluable backward query reading the captured relations.
  Result<AnalyzedQuery> BackwardQuery(Session& session,
                                      const ProvenanceStore& store) {
    QueryParams params{
        {"alpha", Value(static_cast<int64_t>(graph_.num_vertices() - 1))},
        {"sigma", Value(int64_t{3})}};
    return session.PrepareOffline(queries::BackwardLineageFull(), store,
                                  params);
  }

  Graph graph_;
};

TEST_F(DegradedCaptureTest, FailPolicySurfacesTheStorageError) {
  ProvenanceStore store;
  auto stats = CaptureWithBrokenSpill(&store, CaptureDegradePolicy::kFail);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("injected fault"),
            std::string::npos)
      << stats.status().ToString();
}

TEST_F(DegradedCaptureTest, CaptureOffKeepsTheAnalyticAliveAndRefusesEval) {
  ProvenanceStore store;
  auto stats =
      CaptureWithBrokenSpill(&store, CaptureDegradePolicy::kCaptureOff);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->capture_degraded);
  EXPECT_GE(stats->capture_degraded_at, 0);
  EXPECT_TRUE(store.degraded());
  EXPECT_EQ(store.degraded_at(), stats->capture_degraded_at);
  EXPECT_TRUE(store.surviving_relations().empty());
  // Capture stopped: fewer layers than the analytic ran supersteps.
  EXPECT_LT(store.num_layers(), stats->supersteps);

  // Offline evaluation refuses loudly — in both modes.
  recovery::FaultInjector::Global().Disarm();
  Session session(&graph_);
  auto query = BackwardQuery(session, store);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
    auto run = session.RunOffline(&store, *query, mode);
    ASSERT_FALSE(run.ok()) << "mode " << EvalModeToString(mode);
    EXPECT_NE(run.status().message().find("degraded capture"),
              std::string::npos)
        << run.status().ToString();
    EXPECT_NE(run.status().message().find("stopped being captured"),
              std::string::npos);
  }
}

TEST_F(DegradedCaptureTest, DegradationSurvivesSaveAndReload) {
  ProvenanceStore store;
  auto stats =
      CaptureWithBrokenSpill(&store, CaptureDegradePolicy::kCaptureOff);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  recovery::FaultInjector::Global().Disarm();

  const std::string path = dir_ + "/degraded.apv";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto reloaded = ProvenanceStore::LoadFromFile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded->degraded());
  EXPECT_EQ(reloaded->degraded_at(), store.degraded_at());
  EXPECT_EQ(reloaded->surviving_relations(), store.surviving_relations());
  EXPECT_FALSE(reloaded->degraded_reason().empty());

  Session session(&graph_);
  auto query = BackwardQuery(session, *reloaded);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto run = session.RunOffline(&*reloaded, *query, EvalMode::kLayered);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("degraded capture"),
            std::string::npos);
}

TEST_F(DegradedCaptureTest, ForwardLineageKeepsTheSkeleton) {
  ProvenanceStore store;
  auto stats =
      CaptureWithBrokenSpill(&store, CaptureDegradePolicy::kForwardLineage);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->capture_degraded);
  EXPECT_TRUE(store.degraded());
  // The skeleton (superstep + evolution) survives degradation...
  const std::vector<int> surviving = store.surviving_relations();
  ASSERT_EQ(surviving.size(), 2u);
  for (int rel : surviving) {
    const std::string& name = store.schema()[static_cast<size_t>(rel)].name;
    EXPECT_TRUE(name == "superstep" || name == "evolution") << name;
  }
  // ...and keeps being captured: one layer per superstep, with only
  // skeleton slices after the degradation point.
  EXPECT_EQ(store.num_layers(), stats->supersteps);
  auto last = store.GetLayerRelations(store.num_layers() - 1, {});
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  for (const auto& slice : (*last)->slices) {
    const std::string& name =
        store.schema()[static_cast<size_t>(slice.rel)].name;
    EXPECT_TRUE(name == "superstep" || name == "evolution")
        << "non-skeleton slice '" << name << "' after degradation";
  }

  // A query over the dropped relations is still refused.
  recovery::FaultInjector::Global().Disarm();
  Session session(&graph_);
  auto query = BackwardQuery(session, store);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto run = session.RunOffline(&store, *query, EvalMode::kLayered);
  ASSERT_FALSE(run.ok());
  EXPECT_NE(run.status().message().find("degraded capture"),
            std::string::npos);
}

class EngineFaultTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    FaultInjectionTest::SetUp();
    auto g = GenerateGrid(8, 8);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
  }

  Graph graph_;
};

TEST_F(EngineFaultTest, CheckpointWhileFlushingStaysByteIdentical) {
  // Checkpoints embed a store image cut at the barrier while the
  // background flusher is spilling the newest layers — the combination
  // the tsan CI job runs. The final image must match a plain in-memory,
  // single-threaded capture byte for byte.
  Session reference_session(&graph_);
  auto query = reference_session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ProvenanceStore reference;
  SsspProgram reference_sssp(0);
  auto reference_stats =
      reference_session.Capture(reference_sssp, *query, &reference);
  ASSERT_TRUE(reference_stats.ok()) << reference_stats.status().ToString();
  auto want = reference.SerializeToString();
  ASSERT_TRUE(want.ok());

  SessionOptions options;
  options.engine.num_threads = 4;
  options.engine.checkpoint_every = 1;
  options.engine.checkpoint_dir = dir_ + "/ckpt";
  options.engine.checkpoint_fingerprint = "checkpoint-while-flushing";
  std::error_code ec;
  std::filesystem::create_directories(options.engine.checkpoint_dir, ec);
  ASSERT_FALSE(ec);
  Session session(&graph_, options);
  ProvenanceStore store;
  storage::LayerStoreOptions storage_options = FastRetryOptions("spill");
  storage_options.flush_threads = 2;
  storage_options.mem_budget_bytes = 1;  // force spilling + eviction
  ASSERT_TRUE(store.ConfigureStorage(std::move(storage_options)).ok());
  SsspProgram sssp(0);
  auto stats = session.Capture(sssp, *query, &store);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->checkpoints_written, 0);
  EXPECT_GT(store.SpilledLayerCount(), 0);
  auto got = store.SerializeToString();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, *want);
}

TEST_F(EngineFaultTest, ShardDropIsCountedInRunStats) {
  ASSERT_TRUE(recovery::FaultInjector::Global().Arm("shard-drop:1").ok());
  SessionOptions options;
  options.engine.num_threads = 4;
  Session session(&graph_, options);
  PageRankProgram pagerank({.iterations = 5});
  auto stats = session.RunBaseline(pagerank);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->injected_faults, 1);
}

TEST_F(EngineFaultTest, SuperstepErrorFaultFailsTheRunCleanly) {
  ASSERT_TRUE(recovery::FaultInjector::Global().Arm("superstep:3").ok());
  Session session(&graph_);
  PageRankProgram pagerank({.iterations = 5});
  auto stats = session.RunBaseline(pagerank);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("superstep"), std::string::npos)
      << stats.status().ToString();
}

TEST_F(EngineFaultTest, GenericCapturePathRefusesCheckpointing) {
  SessionOptions options;
  options.engine.checkpoint_every = 2;
  options.engine.checkpoint_dir = dir_ + "/nope";
  Session session(&graph_, options);
  auto query = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ProvenanceStore store;
  SsspProgram sssp(0);
  auto stats = session.Capture(sssp, *query, &store, /*retention_window=*/2,
                               nullptr, /*use_fast_capture=*/false);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("fast-capture"), std::string::npos)
      << stats.status().ToString();
}

TEST_F(EngineFaultTest, CheckpointWriteFailureDoesNotKillTheRun) {
  // A failed checkpoint write is a loud warning + counter, never a run
  // failure: the analytic's results still arrive.
  ASSERT_TRUE(
      recovery::FaultInjector::Global().Arm("checkpoint-write:1+").ok());
  SessionOptions options;
  options.engine.checkpoint_every = 1;
  options.engine.checkpoint_dir = dir_ + "/failing";
  std::error_code ec;
  std::filesystem::create_directories(options.engine.checkpoint_dir, ec);
  ASSERT_FALSE(ec);
  Session session(&graph_, options);
  auto query = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ProvenanceStore store;
  SsspProgram sssp(0);
  auto stats = session.Capture(sssp, *query, &store);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->checkpoints_written, 0);
  EXPECT_GT(stats->checkpoint_failures, 0);
}

// ---- Resilience-layer fault points (DESIGN.md §2.8) ----

/// Paged graph / vertex-state / checkpoint-read injection points: a
/// transient hit heals invisibly behind the retry ladder, a persistent
/// one exhausts the ladder (plus one reopen) and goes sticky with
/// coherent gave_up counters.
class ResilienceFaultTest : public FaultInjectionTest {
 protected:
  void SetUp() override {
    FaultInjectionTest::SetUp();
    auto g = GenerateGrid(8, 8);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
  }

  Result<std::unique_ptr<PagedBackend>> OpenPaged(const std::string& name) {
    const std::string path = dir_ + "/" + name + ".agp";
    ARIADNE_RETURN_NOT_OK(
        PagedBackend::CreateFrom(graph_, path, /*vertices_per_partition=*/16));
    PagedBackendOptions options;
    options.budget_bytes = 1;  // evict aggressively: every touch re-reads
    options.enable_prefetch = false;
    options.io_retry.backoff_base_ms = 0.01;  // keep tests fast
    return PagedBackend::Open(path, options);
  }

  Graph graph_;
};

TEST_F(ResilienceFaultTest, PagedPartitionReadTransientErrorHeals) {
  auto paged = OpenPaged("transient");
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE(
      recovery::FaultInjector::Global().Arm("graph-partition-read:1").ok());
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    ASSERT_EQ((*paged)->OutDegree(v), graph_.OutDegree(v)) << v;
  }
  EXPECT_TRUE((*paged)->backend_error().ok());
  const GraphBackendStats stats = (*paged)->backend_stats();
  EXPECT_GE(stats.read_retries, 1u);
  EXPECT_EQ(stats.gave_up, 0u);
  PagedBackend::ReleaseThreadLeases();
}

TEST_F(ResilienceFaultTest, PagedPartitionReadPermanentFailureGoesSticky) {
  auto paged = OpenPaged("sticky");
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE(
      recovery::FaultInjector::Global().Arm("graph-partition-read:1+").ok());
  EXPECT_TRUE((*paged)->OutNeighbors(0).empty());
  EXPECT_FALSE((*paged)->backend_error().ok());
  const GraphBackendStats stats = (*paged)->backend_stats();
  EXPECT_GE(stats.read_retries, 2u);  // two ladders: before + after reopen
  EXPECT_GE(stats.fd_reopens, 1u);    // the reopen was attempted...
  EXPECT_GE(stats.gave_up, 1u);       // ...and the error still went sticky
  // Healing the fault does not resurrect the backend: the error stays
  // sticky (a degraded backend never silently self-repairs mid-run).
  recovery::FaultInjector::Global().Disarm();
  EXPECT_FALSE((*paged)->backend_error().ok());
  PagedBackend::ReleaseThreadLeases();
}

TEST_F(ResilienceFaultTest, OfflineQueryFailsOnStickyGraphBackendError) {
  // Captured over the in-memory graph; queried over a paged copy whose
  // partition reads all fail. The backend then serves empty adjacency,
  // which must surface as an error, never as an answer without edges.
  Session memory_session(&graph_);
  ProvenanceStore store;
  auto capture = memory_session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(capture.ok()) << capture.status().ToString();
  SsspProgram sssp(0);
  ASSERT_TRUE(memory_session.Capture(sssp, *capture, &store).ok());
  const std::string text = "nbr(x, y) <- edge(x, y), superstep(x, i), i = 0.";
  auto query = memory_session.PrepareOffline(text, store);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  auto in_memory =
      memory_session.RunOffline(&store, *query, EvalMode::kLayered);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status().ToString();
  ASSERT_EQ(in_memory->result.TupleCount("nbr"), 224u);

  for (EvalMode mode : {EvalMode::kLayered, EvalMode::kNaive}) {
    recovery::FaultInjector::Global().Disarm();
    auto paged = OpenPaged(std::string("offline-") + EvalModeToString(mode));
    ASSERT_TRUE(paged.ok()) << paged.status().ToString();
    ASSERT_TRUE(
        recovery::FaultInjector::Global().Arm("graph-partition-read:1+").ok());
    Session session(paged->get());
    auto run = session.RunOffline(&store, *query, mode);
    ASSERT_FALSE(run.ok()) << EvalModeToString(mode) << " answered with "
                           << run->result.TupleCount("nbr") << " tuples";
    EXPECT_NE(run.status().message().find("graph backend failed"),
              std::string::npos)
        << run.status().ToString();
    PagedBackend::ReleaseThreadLeases();
  }
  // The server's shared adjacency planes are built the same way.
  recovery::FaultInjector::Global().Disarm();
  auto paged = OpenPaged("offline-serve");
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  ASSERT_TRUE(
      recovery::FaultInjector::Global().Arm("graph-partition-read:1+").ok());
  auto state = serve::ServiceState::Create(paged->get(), &store);
  ASSERT_FALSE(state.ok());
  EXPECT_NE(state.status().message().find("graph backend failed"),
            std::string::npos)
      << state.status().ToString();
  PagedBackend::ReleaseThreadLeases();
}

TEST_F(ResilienceFaultTest, VertexStatePageReadTransientErrorHeals) {
  ASSERT_TRUE(
      recovery::FaultInjector::Global().Arm("vstate-page-read:1").ok());
  SsspProgram sssp(0);
  EngineOptions options;
  options.paged_vertex_state = true;
  options.vertex_state_budget_bytes = 1 << 12;  // force eviction + reload
  options.vertex_state_dir = dir_;
  Engine<double, double> engine(&graph_, options);
  auto stats = engine.Run(sssp);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->vertex_state.read_retries, 1u);
  EXPECT_EQ(stats->vertex_state.gave_up, 0u);
}

TEST_F(ResilienceFaultTest, VertexStateWritebackTransientErrorHeals) {
  ASSERT_TRUE(
      recovery::FaultInjector::Global().Arm("vstate-page-write:1").ok());
  SsspProgram sssp(0);
  EngineOptions options;
  options.paged_vertex_state = true;
  options.vertex_state_budget_bytes = 1 << 12;  // dirty evictions write back
  options.vertex_state_dir = dir_;
  Engine<double, double> engine(&graph_, options);
  auto stats = engine.Run(sssp);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->vertex_state.write_retries, 1u);
  EXPECT_EQ(stats->vertex_state.gave_up, 0u);
}

TEST_F(ResilienceFaultTest, CheckpointReadTransientErrorHealsOnResume) {
  SessionOptions options;
  options.engine.checkpoint_every = 2;
  options.engine.checkpoint_dir = dir_ + "/ckpt";
  options.engine.checkpoint_fingerprint = "resilience-resume";
  std::error_code ec;
  std::filesystem::create_directories(options.engine.checkpoint_dir, ec);
  ASSERT_FALSE(ec);
  {
    Session session(&graph_, options);
    auto query = session.PrepareOnline(queries::CaptureFull());
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    ProvenanceStore store;
    SsspProgram sssp(0);
    auto stats = session.Capture(sssp, *query, &store);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_GT(stats->checkpoints_written, 0);
  }
  // Resume hits the checkpoint read path: one transient error, healed.
  ASSERT_TRUE(recovery::FaultInjector::Global().Arm("checkpoint-read:1").ok());
  options.engine.resume = true;
  Session session(&graph_, options);
  auto query = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ProvenanceStore store;
  SsspProgram sssp(0);
  auto stats = session.Capture(sssp, *query, &store);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GE(stats->resumed_from_step, 0);
}

// ---- Probabilistic / transient injection DSL ----

TEST(FaultInjectorDslTest, ProbabilisticRuleValidation) {
  recovery::FaultInjector& injector = recovery::FaultInjector::Global();
  EXPECT_TRUE(injector.Arm("page-read@0.01", 7).ok());
  EXPECT_TRUE(injector.Arm("page-read@1.0:3", 7).ok());
  EXPECT_TRUE(injector.Arm("vstate-page-read@0.05:2:error", 7).ok());
  EXPECT_FALSE(injector.Arm("page-read@0", 7).ok());     // rate must be > 0
  EXPECT_FALSE(injector.Arm("page-read@1.5", 7).ok());   // ... and <= 1
  EXPECT_FALSE(injector.Arm("page-read@0.5:0", 7).ok()); // burst must be > 0
  EXPECT_FALSE(injector.Arm("page-read@", 7).ok());
  injector.Disarm();
}

TEST(FaultInjectorDslTest, RateOneFiresEveryHitAndBurstHeals) {
  recovery::FaultInjector& injector = recovery::FaultInjector::Global();
  ASSERT_TRUE(injector.Arm("p@1.0:2", 1).ok());
  // rate=1 triggers on every draw; burst=2 groups failures in pairs but
  // with certain re-trigger the net effect is: every hit fails.
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(injector.Hit("p").ok()) << "hit " << i;
  }
  EXPECT_EQ(injector.fired_count(), 6u);
  injector.Disarm();
}

TEST(FaultInjectorDslTest, SeededStreamReplaysExactly) {
  recovery::FaultInjector& injector = recovery::FaultInjector::Global();
  auto pattern = [&](uint64_t seed) {
    EXPECT_TRUE(injector.Arm("p@0.3", seed).ok());
    std::string fired;
    for (int i = 0; i < 64; ++i) {
      fired += injector.Hit("p").ok() ? '.' : 'X';
    }
    injector.Disarm();
    return fired;
  };
  const std::string a = pattern(42);
  const std::string b = pattern(42);
  const std::string c = pattern(43);
  EXPECT_EQ(a, b);  // same seed -> identical flake pattern
  EXPECT_NE(a, c);  // different seed -> a different (still ~30%) pattern
  EXPECT_NE(a.find('X'), std::string::npos);
  EXPECT_NE(a.find('.'), std::string::npos);
}

TEST(FaultInjectorDslTest, BurstFailsConsecutiveHitsThenHeals) {
  recovery::FaultInjector& injector = recovery::FaultInjector::Global();
  // Find a seed whose first draw triggers, then verify the burst shape:
  // k consecutive failures, then the stream resumes drawing.
  for (uint64_t seed = 1; seed < 64; ++seed) {
    ASSERT_TRUE(injector.Arm("p@0.2:3", seed).ok());
    if (injector.Hit("p").ok()) {
      injector.Disarm();
      continue;
    }
    // Triggered on hit 1: hits 2 and 3 are the rest of the burst.
    EXPECT_FALSE(injector.Hit("p").ok());
    EXPECT_FALSE(injector.Hit("p").ok());
    injector.Disarm();
    return;
  }
  FAIL() << "no seed in [1,64) triggered p@0.2 on the first hit";
}

}  // namespace
}  // namespace ariadne
