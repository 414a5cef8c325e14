// Allocation guard for the census hot path. The orderly walk reuses one
// canonical-search result per parent, closes subset orbits on the stack and
// hands each class to the kernel as the graph it built, so the heap traffic
// of a census no longer scales with the candidates it canonicalizes. This binary replaces the global operator new
// with a counting one (hence its own executable: the replacement applies
// to the whole program) and pins that a warm n = 8 curve census allocates
// less than once per topology.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "analysis/poa_curve.hpp"
#include "gen/enumerate.hpp"

namespace {

std::atomic<std::uint64_t> allocations{0};

void* counted_allocation(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_allocation(size); }
void* operator new[](std::size_t size) { return counted_allocation(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bnf {
namespace {

// The first call warms what a process builds once (metric registry
// entries, pool threads); the second is measured. Generation and
// profiling run once per topology, so a per-candidate or per-topology
// allocation would push the ratio past 1. It reads 9,606 allocations for
// 11,117 topologies (0.86): what is left is per parent (the child graph,
// the first canonical search's result), per shard and per pass. The bound
// of one per topology leaves a 14% margin; it read 1.17 while every
// parent heap-allocated its subset-orbit closure and the last level
// canonicalized every accepted child, and ~8 when every canonical search
// built its result from scratch and the kernel decoded each key into a
// fresh graph.
TEST(AllocationGuard, WarmCurveCensusAllocatesLessThanOncePerTopology) {
  const poa_stream_options options{.include_ucg = false, .threads = 1};
  (void)stream_poa_curve(8, options);
  const std::uint64_t before = allocations.load();
  const poa_curve_summary summary = stream_poa_curve(8, options);
  const std::uint64_t made = allocations.load() - before;
  ASSERT_EQ(summary.topologies, known_connected_graph_counts[8]);
  EXPECT_LT(made, summary.topologies) << made << " allocations";
}

}  // namespace
}  // namespace bnf
