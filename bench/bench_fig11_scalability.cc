// Reproduces Figures 11 and 12: SpiderMine's runtime as |V| grows to
// 40000 (d = 3, 100 labels, sigma = 2, K = 10, Dmax = 10) and the size of
// the largest pattern discovered at each scale. The background graph gets
// progressively larger planted patterns, following the paper's report of
// finding "patterns of size 230 in data graph of size 40000 in less than
// two minutes" (their largest-pattern series: 230, 21, 19, 33, 59, 53,
// 101, 121, 166 across scales -- i.e. growing with noise).
//
// Output rows: vertices,seconds,largest_pattern_vertices,largest_pattern_edges

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Figures 11-12",
         "SpiderMine runtime and largest-pattern size vs |V| up to 40000 "
         "(d=3, f=100, sigma=2, K=10, Dmax=10)");
  std::printf("vertices,seconds,largest_vertices,largest_edges\n");

  for (int64_t n : {1000, 5000, 10000, 20000, 30000, 40000}) {
    Rng rng(3000 + n);
    GraphBuilder builder = GenerateErdosRenyi(n, 3.0, 100, &rng);
    // Plant a large pattern that scales with the graph (the paper's
    // largest series grows with |V|), capped for injection headroom.
    int32_t large_size =
        static_cast<int32_t>(std::min<int64_t>(n / 200 + 20, 220));
    Pattern large = RandomConnectedPattern(large_size, 0.15, 100, &rng);
    PatternInjector injector(&builder);
    if (!injector.Inject(large, 2, &rng).ok()) return 1;
    LabeledGraph graph = std::move(builder.Build()).value();

    SessionConfig config;
    TopKQuery query;
    config.min_support = 2;
    query.k = 10;
    query.dmax = 10;
    query.vmin = large_size;
    query.rng_seed = 5;
    query.time_budget_seconds = 150;
    QueryResult mined;
    double seconds = RunSpiderMine(graph, config, query, &mined);

    std::printf("%lld,%.3f,%d,%d\n", static_cast<long long>(n), seconds,
                LargestVertices(mined.patterns), LargestEdges(mined.patterns));
  }
  return 0;
}
