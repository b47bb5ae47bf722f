// Crash/restart matrix (DESIGN.md §2.4): a capture run killed at every
// superstep — via the deterministic fault injector's kCrash rules, in a
// forked child so the _Exit(42) cannot take the test down — must resume
// from its last checkpoint and produce byte-identical final vertex values
// AND a byte-identical APV2 store image, at 1 and 4 engine threads.
// Also proves atomic SaveToFile: a crash mid-write never leaves a torn
// destination image.

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/ariadne.h"
#include "graph/paged_backend.h"
#include "recovery/checkpoint.h"
#include "recovery/fault_injector.h"

namespace ariadne {
namespace {

struct CaptureOutput {
  RunStats stats;
  std::vector<double> values;
  std::string store_image;
};

class CrashRecoveryTest : public testing::Test {
 protected:
  void SetUp() override {
    auto g = GenerateGrid(8, 8);
    ASSERT_TRUE(g.ok());
    graph_ = std::move(g).value();
    dir_ = testing::TempDir() + "/crash_recovery";
    std::filesystem::remove_all(dir_);
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    ASSERT_FALSE(ec) << ec.message();
  }

  void TearDown() override {
    recovery::FaultInjector::Global().Disarm();
    std::filesystem::remove_all(dir_);
  }

  /// One capture run of `analytic` ("pagerank" or "sssp") under the given
  /// engine thread count and checkpoint configuration.
  template <typename P>
  Result<CaptureOutput> RunCapture(P& program, size_t threads,
                                   Superstep checkpoint_every, bool resume) {
    SessionOptions options;
    options.engine.num_threads = threads;
    options.engine.checkpoint_every = checkpoint_every;
    options.engine.checkpoint_dir = checkpoint_every > 0 ? dir_ : "";
    options.engine.resume = resume;
    options.engine.checkpoint_fingerprint = "crash-recovery-test";
    Session session(run_graph_ != nullptr ? run_graph_ : &graph_, options);
    auto query = session.PrepareOnline(queries::CaptureFull());
    ARIADNE_RETURN_NOT_OK(query.status());
    ProvenanceStore store;
    CaptureOutput out;
    ARIADNE_ASSIGN_OR_RETURN(
        out.stats,
        session.Capture(program, *query, &store, /*retention_window=*/2,
                        &out.values));
    ARIADNE_ASSIGN_OR_RETURN(out.store_image, store.SerializeToString());
    return out;
  }

  /// Crash matrix for one analytic: reference run without checkpointing,
  /// then for every superstep k a forked child that crashes at k (fault
  /// point "superstep", kCrash) followed by a resumed run in the parent.
  template <typename MakeProgram>
  void RunCrashMatrix(MakeProgram make_program, size_t threads) {
    auto reference_program = make_program();
    auto reference = RunCapture(reference_program, threads, 0, false);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const Superstep supersteps = reference->stats.supersteps;
    ASSERT_GE(supersteps, 10) << "matrix needs a 10+ superstep run";

    for (Superstep kill = 1; kill <= supersteps; ++kill) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " kill_superstep=" + std::to_string(kill));
      std::filesystem::remove(recovery::CheckpointPath(dir_));

      const pid_t pid = fork();
      ASSERT_GE(pid, 0) << "fork failed";
      if (pid == 0) {
        // Child: arm the crash and run. The _Exit(42) fires at the start
        // of superstep kill-1 (the kill-th hit of the "superstep" point).
        const std::string scenario =
            "superstep:" + std::to_string(kill) + ":crash";
        if (!recovery::FaultInjector::Global().Arm(scenario).ok()) _exit(3);
        auto program = make_program();
        auto crashed = RunCapture(program, threads, 1, false);
        // Reached only if the run finished before the crash point.
        _exit(crashed.ok() ? 7 : 4);
      }
      int wstatus = 0;
      ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
      ASSERT_TRUE(WIFEXITED(wstatus));
      ASSERT_EQ(WEXITSTATUS(wstatus), recovery::FaultInjector::kCrashExitCode)
          << "child did not crash at the injected superstep";

      auto program = make_program();
      auto resumed = RunCapture(program, threads, 1, true);
      ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
      // Killed at superstep kill-1 with a checkpoint at every barrier, the
      // run restarts exactly there (except a crash at superstep 0, which
      // precedes the first checkpoint and restarts fresh).
      EXPECT_EQ(resumed->stats.resumed_from_step, kill >= 2 ? kill - 1 : -1);
      EXPECT_EQ(resumed->stats.supersteps, supersteps);
      EXPECT_EQ(resumed->values, reference->values)
          << "resumed vertex values differ from the uninterrupted run";
      EXPECT_EQ(resumed->store_image, reference->store_image)
          << "resumed capture image differs from the uninterrupted run";
    }
  }

  Graph graph_;
  std::string dir_;
  /// When set, RunCapture iterates this backend instead of graph_ (the
  /// cross-backend kill+resume case points it at a PagedBackend over the
  /// same topology).
  const Graph* run_graph_ = nullptr;
};

TEST_F(CrashRecoveryTest, PageRankKilledAtEverySuperstepSingleThread) {
  RunCrashMatrix([] { return PageRankProgram({.iterations = 9}); }, 1);
}

TEST_F(CrashRecoveryTest, PageRankKilledAtEverySuperstepFourThreads) {
  RunCrashMatrix([] { return PageRankProgram({.iterations = 9}); }, 4);
}

TEST_F(CrashRecoveryTest, SsspKilledAtEverySuperstepSingleThread) {
  RunCrashMatrix([] { return SsspProgram(0); }, 1);
}

TEST_F(CrashRecoveryTest, SsspKilledAtEverySuperstepFourThreads) {
  RunCrashMatrix([] { return SsspProgram(0); }, 4);
}

TEST_F(CrashRecoveryTest, ResumeAcrossThreadCountsIsByteIdentical) {
  // Checkpoint written by a 1-thread run, resumed by a 4-thread run (and
  // vice versa): chunk boundaries depend only on active-set size, so the
  // outputs stay byte-identical.
  PageRankProgram reference_program({.iterations = 9});
  auto reference = RunCapture(reference_program, 1, 0, false);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (const auto& [crash_threads, resume_threads] :
       {std::pair<size_t, size_t>{1, 4}, std::pair<size_t, size_t>{4, 1}}) {
    SCOPED_TRACE("crash_threads=" + std::to_string(crash_threads) +
                 " resume_threads=" + std::to_string(resume_threads));
    std::filesystem::remove(recovery::CheckpointPath(dir_));
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      if (!recovery::FaultInjector::Global().Arm("superstep:6:crash").ok()) {
        _exit(3);
      }
      PageRankProgram program({.iterations = 9});
      auto crashed = RunCapture(program, crash_threads, 1, false);
      _exit(crashed.ok() ? 7 : 4);
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), recovery::FaultInjector::kCrashExitCode);

    PageRankProgram program({.iterations = 9});
    auto resumed = RunCapture(program, resume_threads, 1, true);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->stats.resumed_from_step, 5);
    EXPECT_EQ(resumed->values, reference->values);
    EXPECT_EQ(resumed->store_image, reference->store_image);
  }
}

TEST_F(CrashRecoveryTest, PagedBackendKilledMidRunResumesByteIdentical) {
  // Cross-backend kill+resume (`ariadne_run --graph-backend paged`): both
  // the crashed run and the resumed run iterate the out-of-core topology
  // under a tight budget, and the result must still be byte-identical to
  // the uninterrupted in-memory run. Each process opens its own backend
  // (fork must never inherit a live prefetcher thread or held cache lock).
  PageRankProgram reference_program({.iterations = 9});
  auto reference = RunCapture(reference_program, 4, 0, false);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  const std::string spill = dir_ + "/crash_graph.agp";
  ASSERT_TRUE(
      PagedBackend::CreateFrom(graph_, spill, /*vertices_per_partition=*/16)
          .ok());
  auto open_paged = [&]() {
    PagedBackendOptions options;
    options.budget_bytes = 1 << 12;  // tight: constant faulting + eviction
    return PagedBackend::Open(spill, options);
  };

  std::filesystem::remove(recovery::CheckpointPath(dir_));
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!recovery::FaultInjector::Global().Arm("superstep:6:crash").ok()) {
      _exit(3);
    }
    auto paged = open_paged();
    if (!paged.ok()) _exit(5);
    run_graph_ = paged->get();
    PageRankProgram program({.iterations = 9});
    auto crashed = RunCapture(program, 4, 1, false);
    _exit(crashed.ok() ? 7 : 4);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), recovery::FaultInjector::kCrashExitCode);

  auto paged = open_paged();
  ASSERT_TRUE(paged.ok()) << paged.status().ToString();
  run_graph_ = paged->get();
  PageRankProgram program({.iterations = 9});
  auto resumed = RunCapture(program, 4, 1, true);
  run_graph_ = nullptr;
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->stats.resumed_from_step, 5);
  EXPECT_EQ(resumed->values, reference->values)
      << "paged resume differs from the in-memory uninterrupted run";
  EXPECT_EQ(resumed->store_image, reference->store_image);
  EXPECT_GT(resumed->stats.graph_backend.partition_faults, 0u);
  EXPECT_EQ(resumed->stats.graph_backend.gave_up, 0u);
  PagedBackend::ReleaseThreadLeases();
}

TEST_F(CrashRecoveryTest, CrashDuringSaveNeverTearsTheImage) {
  // Atomic temp+fsync+rename (satellite of DESIGN.md §2.4): kill the
  // process in the middle of SaveToFile and the destination must either
  // not exist or hold the complete previous image — never a torn one.
  ProvenanceStore store;
  const int rel = store.AddRelation("value", 2);
  for (Superstep s = 0; s < 3; ++s) {
    Layer layer;
    layer.step = s;
    for (VertexId v = 0; v < 50; ++v) {
      layer.Add(rel, v, {{Value(int64_t{v}), Value(0.25 * v + s)}});
    }
    ASSERT_TRUE(store.AppendLayer(std::move(layer)).ok());
  }
  const std::string path = dir_ + "/save_target.apv";
  ASSERT_TRUE(store.SaveToFile(path).ok());
  auto pristine = ReadFile(path);
  ASSERT_TRUE(pristine.ok());

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: grow the store and crash halfway through rewriting the file.
    Layer layer;
    layer.step = 3;
    for (VertexId v = 0; v < 50; ++v) {
      layer.Add(rel, v, {{Value(int64_t{v}), Value(9.75 * v)}});
    }
    if (!store.AppendLayer(std::move(layer)).ok()) _exit(5);
    if (!recovery::FaultInjector::Global().Arm("file-write-mid:1:crash").ok()) {
      _exit(3);
    }
    Status saved = store.SaveToFile(path);  // must _Exit(42) mid-write
    (void)saved;
    _exit(7);
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), recovery::FaultInjector::kCrashExitCode);

  // The destination is byte-identical to the pre-crash image and loads.
  auto after = ReadFile(path);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(*after, *pristine) << "SaveToFile tore the destination image";
  auto loaded = ProvenanceStore::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_layers(), 3);
}

}  // namespace
}  // namespace ariadne
