// Allocation guard for per-vertex online evaluation: counts global
// operator new calls during one online PageRank + apt run and bounds them
// per vertex activation. Relations, index tables and rule frames keep
// their capacity, so a regression that brings back per-fact or per-walk
// heap allocation shows up here as a count, independent of timing noise.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
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

// Measured at 14.1 allocations per activation on this workload (R-MAT
// scale 8, 5376 activations); the bound leaves about 25% headroom.
constexpr double kMaxAllocationsPerActivation = 17.6;

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
  std::printf("%llu allocations over %lld activations: %.1f per activation\n",
              static_cast<unsigned long long>(g_allocations.load()),
              static_cast<long long>(activations), per_activation);
  EXPECT_LT(per_activation, kMaxAllocationsPerActivation);
}

}  // namespace
}  // namespace ariadne
