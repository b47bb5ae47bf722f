// Allocation guards: count global operator new calls during one online
// PageRank + apt run (bounded per vertex activation) and one spilling
// PageRank full capture (bounded per captured tuple). Relations, index
// tables, rule frames and capture batches keep their capacity, so a
// regression that brings back per-fact, per-walk or per-row heap
// allocation shows up here as a count, independent of timing noise.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>

#include "core/ariadne.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocations{0};

void* CountedMalloc(std::size_t size) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

// Every non-aligned form is replaced, so each allocation and its release
// go through this pair even when a sanitizer runtime provides the others.
void* operator new(std::size_t size) {
  if (void* p = CountedMalloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedMalloc(size);
}

// Not inlined: GCC would otherwise pair the free() with a visible new
// expression and report a mismatched deallocation.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ariadne {
namespace {

// Measured at 1.25 allocations per activation on this workload (R-MAT
// scale 8, 6,702 allocations for 5,376 activations); the bound leaves
// about 25% headroom. A new inbox or send buffer per activation would
// add two or more.
constexpr double kMaxAllocationsPerActivation = 1.56;

TEST(OnlineAllocTest, AptAllocationsPerActivationStayBounded) {
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.avg_degree = 8;
  rmat.seed = 1;
  auto graph = GenerateRmat(rmat);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Session session(&*graph);  // one engine thread
  auto query = session.PrepareOnline(queries::Apt(), {{"eps", Value(0.01)}});
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  PageRankOptions options;
  options.iterations = 20;

  // The first run grows the thread's rule frame; count the second.
  {
    PageRankProgram warm(options);
    ASSERT_TRUE(session.RunOnline(warm, *query, /*retention_window=*/2).ok());
  }
  PageRankProgram pagerank(options);
  g_allocations = 0;
  g_counting = true;
  auto run = session.RunOnline(pagerank, *query, /*retention_window=*/2);
  g_counting = false;
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_GT(run->query_result.TotalTuples(), 0u);

  const int64_t activations = run->engine_stats.total_active;
  ASSERT_GT(activations, 0);
  const double per_activation =
      static_cast<double>(g_allocations.load()) /
      static_cast<double>(activations);
  std::printf("%llu allocations over %lld activations: %.2f per activation\n",
              static_cast<unsigned long long>(g_allocations.load()),
              static_cast<long long>(activations), per_activation);
  EXPECT_LT(per_activation, kMaxAllocationsPerActivation);
}

// Measured at 0.057 allocations per captured tuple on this workload
// (R-MAT scale 8, 4,270 allocations for 74,512 tuples, flusher
// included); the bound leaves about 25% headroom. Building a Tuple per
// captured row costs several allocations per tuple.
constexpr double kMaxAllocationsPerCapturedTuple = 0.072;

TEST(OnlineAllocTest, CaptureAllocationsPerTupleStayBounded) {
  RmatOptions rmat;
  rmat.scale = 8;
  rmat.avg_degree = 8;
  rmat.seed = 1;
  auto graph = GenerateRmat(rmat);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  Session session(&*graph);  // one engine thread
  auto query = session.PrepareOnline(queries::CaptureFull());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_TRUE(query->fast_capture().has_value());
  PageRankOptions options;
  options.iterations = 20;
  const std::string dir = testing::TempDir() + "/online_alloc_capture";

  // Each run captures into a new store that spills every layer (budget
  // 0); the first run warms the thread's buffers, the second is counted.
  uint64_t allocations = 0;
  int64_t tuples = 0;
  for (int run = 0; run < 2; ++run) {
    std::filesystem::remove_all(dir);
    ProvenanceStore store;
    ASSERT_TRUE(store.EnableSpill(dir, 0).ok());
    PageRankProgram pagerank(options);
    g_allocations = 0;
    g_counting = run == 1;
    auto stats = session.Capture(pagerank, *query, &store);
    g_counting = false;
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    allocations = g_allocations.load();
    tuples = store.TotalTuples();
  }
  std::filesystem::remove_all(dir);
  ASSERT_GT(tuples, 0);
  const double per_tuple =
      static_cast<double>(allocations) / static_cast<double>(tuples);
  std::printf("%llu allocations over %lld captured tuples: %.3f per tuple\n",
              static_cast<unsigned long long>(allocations),
              static_cast<long long>(tuples), per_tuple);
  EXPECT_LT(per_tuple, kMaxAllocationsPerCapturedTuple);
}

}  // namespace
}  // namespace ariadne
