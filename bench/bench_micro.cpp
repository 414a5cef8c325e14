// Microbenchmarks of the kernels behind the paper's experiments: BFS
// distance sums, all-pairs distances, canonical labeling, stability
// records, UCG best responses and level-wise enumeration. These set the
// throughput envelope for the census sweeps (Figures 2/3).
#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "bnf.hpp"

namespace {

void BM_DistanceSumPetersen(benchmark::State& state) {
  const bnf::graph g = bnf::petersen();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnf::distance_sum(g, 0));
  }
}
BENCHMARK(BM_DistanceSumPetersen);

void BM_DistanceSumHoffmanSingleton(benchmark::State& state) {
  const bnf::graph g = bnf::hoffman_singleton();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnf::distance_sum(g, 0));
  }
}
BENCHMARK(BM_DistanceSumHoffmanSingleton);

void BM_AllPairsDistances(benchmark::State& state) {
  bnf::rng random(1);
  const bnf::graph g =
      bnf::random_connected_gnm(static_cast<int>(state.range(0)),
                                2 * static_cast<int>(state.range(0)), random);
  for (auto _ : state) {
    const bnf::distance_matrix matrix(g);
    benchmark::DoNotOptimize(matrix.total());
  }
}
BENCHMARK(BM_AllPairsDistances)->Arg(10)->Arg(20)->Arg(40);

void BM_CanonicalRandomGraph(benchmark::State& state) {
  bnf::rng random(2);
  const int n = static_cast<int>(state.range(0));
  std::vector<bnf::graph> pool;
  for (int i = 0; i < 64; ++i) pool.push_back(bnf::gnp(n, 0.4, random));
  std::size_t index = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnf::canonical_form(pool[index & 63]));
    ++index;
  }
}
BENCHMARK(BM_CanonicalRandomGraph)->Arg(8)->Arg(10);

void BM_CanonicalPetersen(benchmark::State& state) {
  // Worst-ish case: vertex-transitive SRG, refinement cannot split.
  const bnf::graph g = bnf::petersen();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnf::canonical_form(g));
  }
}
BENCHMARK(BM_CanonicalPetersen);

void BM_StabilityRecord(benchmark::State& state) {
  bnf::rng random(3);
  const int n = static_cast<int>(state.range(0));
  const bnf::graph g = bnf::random_connected_gnm(n, 2 * n, random);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnf::compute_stability_record(g));
  }
}
BENCHMARK(BM_StabilityRecord)->Arg(8)->Arg(10);

void BM_UcgBestResponse(benchmark::State& state) {
  const bnf::graph g = bnf::petersen();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bnf::ucg_best_response_given_kept(g, 2.0, 0, g.neighbors(0)));
  }
}
BENCHMARK(BM_UcgBestResponse);

void BM_UcgNashCheckPetersen(benchmark::State& state) {
  const bnf::graph g = bnf::petersen();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnf::ucg_nash_supportable(g, 2.0));
  }
}
BENCHMARK(BM_UcgNashCheckPetersen);

void BM_EnumerateConnected(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bnf::all_graph_keys(n, {.connected_only = true, .threads = 1}));
  }
}
BENCHMARK(BM_EnumerateConnected)->Arg(6)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_OrderlyCountConnected(benchmark::State& state) {
  // The pure generator, nothing materialized: the throughput ceiling of
  // every streaming census (classes emitted per second).
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bnf::count_graphs(n, {.connected_only = true, .threads = 1}));
  }
}
BENCHMARK(BM_OrderlyCountConnected)
    ->Arg(7)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_OrderlyTrees(benchmark::State& state) {
  // Hereditary forest prune: cost tracks the 106 trees on 10 vertices,
  // not the 11.7M connected classes.
  for (auto _ : state) {
    benchmark::DoNotOptimize(bnf::all_trees(10));
  }
}
BENCHMARK(BM_OrderlyTrees)->Unit(benchmark::kMillisecond);

void BM_PairwiseDynamicsRun(benchmark::State& state) {
  bnf::rng random(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bnf::run_pairwise_dynamics(bnf::graph(8), 2.0, random));
  }
}
BENCHMARK(BM_PairwiseDynamicsRun)->Unit(benchmark::kMicrosecond);

// Per-call dispatch overhead of a parallel section with empty chunk
// bodies. The persistent-pool path pays one queue push per chunk; the
// spawn path (the pre-engine implementation) pays a thread create + join
// per chunk, which dominated short sweeps.
void BM_ParallelDispatchPersistent(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  bnf::parallel_for_chunks(static_cast<std::size_t>(workers), workers,
                           [](std::size_t, std::size_t) {});  // warm the pool
  for (auto _ : state) {
    bnf::parallel_for_chunks(static_cast<std::size_t>(workers), workers,
                             [](std::size_t, std::size_t) {});
  }
}
BENCHMARK(BM_ParallelDispatchPersistent)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

void BM_ParallelDispatchSpawn(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  for (auto _ : state) {
    // analyze:allow(raw-thread) this benchmark measures raw spawn cost as the baseline the shared pool is compared against
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) pool.emplace_back([] {});
    for (auto& worker : pool) worker.join();
  }
}
BENCHMARK(BM_ParallelDispatchSpawn)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
