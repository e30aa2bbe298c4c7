// Google-benchmark micro benchmarks for the library's hot kernels:
// canonical DFS codes, VF2 embedding search, support measures and Stage I
// star mining. These are the operations the figure-level benches compose;
// tracking them isolates regressions.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "pattern/embedding.h"
#include "gen/erdos_renyi.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "pattern/dfs_code.h"
#include "pattern/vf2.h"
#include "spider/star_miner.h"
#include "support/support_measure.h"

namespace spidermine {
namespace {

void BM_MinimumDfsCode(benchmark::State& state) {
  Rng rng(42);
  Pattern p = RandomConnectedPattern(static_cast<int32_t>(state.range(0)),
                                     0.3, 4, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MinimumDfsCode(p));
  }
  state.SetLabel("pattern vertices");
}
BENCHMARK(BM_MinimumDfsCode)->Arg(6)->Arg(10)->Arg(14);

void BM_Vf2FindEmbeddings(benchmark::State& state) {
  Rng rng(45);
  LabeledGraph g = std::move(
      GenerateErdosRenyi(state.range(0), 3.0, 10, &rng).Build())
          .value();
  Pattern p = RandomConnectedPattern(4, 0.0, 10, &rng);
  Vf2Options options;
  options.max_embeddings = 1000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FindEmbeddings(p, g, options));
  }
}
BENCHMARK(BM_Vf2FindEmbeddings)->Arg(500)->Arg(2000)->Arg(8000);

void BM_ImagesIntersect(benchmark::State& state) {
  // Disjointness of sorted image sets is the inner loop of MIS-based
  // support. range(0) = size ratio: 1 exercises the two-pointer merge,
  // large ratios the galloping path; range(1) = 1 makes them intersect at
  // the midpoint (early exit), 0 keeps them disjoint (full scan).
  const int64_t ratio = state.range(0);
  const bool overlapping = state.range(1) != 0;
  std::vector<VertexId> small, large;
  for (VertexId v = 0; v < 64; ++v) small.push_back(v * 1000);
  for (VertexId v = 0; v < static_cast<VertexId>(64 * ratio); ++v) {
    large.push_back(v * 7 + 1);
  }
  if (overlapping) large[large.size() / 2] = small[small.size() / 2];
  std::sort(large.begin(), large.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ImagesIntersect(small, large));
  }
  state.SetLabel(overlapping ? "hit" : "disjoint");
}
BENCHMARK(BM_ImagesIntersect)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({256, 0})
    ->Args({256, 1});

void BM_SupportMeasures(benchmark::State& state) {
  Rng rng(46);
  LabeledGraph g = std::move(
      GenerateErdosRenyi(2000, 3.0, 6, &rng).Build())
          .value();
  Pattern p = RandomConnectedPattern(3, 0.0, 6, &rng);
  Vf2Options options;
  options.max_embeddings = 2000;
  OccurrenceList embeddings = FindEmbeddings(p, g, options);
  auto kind = static_cast<SupportMeasureKind>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ComputeSupport(kind, p, embeddings));
  }
  state.SetLabel(std::string(SupportMeasureName(kind)));
}
BENCHMARK(BM_SupportMeasures)
    ->Arg(static_cast<int>(SupportMeasureKind::kEmbeddingCount))
    ->Arg(static_cast<int>(SupportMeasureKind::kMinImage))
    ->Arg(static_cast<int>(SupportMeasureKind::kGreedyMisVertex))
    ->Arg(static_cast<int>(SupportMeasureKind::kGreedyMisEdge));

void BM_StarMining(benchmark::State& state) {
  Rng rng(47);
  LabeledGraph g = std::move(
      GenerateErdosRenyi(state.range(0), 3.0, 50, &rng).Build())
          .value();
  StarMinerConfig config;
  config.min_support = 2;
  config.max_leaves = 6;
  ThreadPool serial(1);  // one thread: every loop runs inline
  for (auto _ : state) {
    benchmark::DoNotOptimize(MineStarSpiders(g, config, serial));
  }
}
BENCHMARK(BM_StarMining)->Arg(1000)->Arg(5000)->Arg(20000);

}  // namespace
}  // namespace spidermine

BENCHMARK_MAIN();
