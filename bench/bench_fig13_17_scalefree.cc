// Reproduces Figures 13 and 17: scale-free (Barabasi-Albert) networks.
// Figure 17: the number of r=1 spiders and the runtime grow sharply with
// graph size (hub vertices explode the spider count). Figure 13: the size
// of the largest pattern discovered per |E|.
//
// Paper shape targets: spider count rising toward ~10^6 at the largest
// scale; SUBDUE/SEuS cannot run at all on these graphs (we demonstrate
// with budgets); SpiderMine still returns large patterns.
//
// Output rows: vertices,edges,num_spiders,stage1_seconds,total_seconds,
//              largest_vertices,largest_edges

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "gen/barabasi_albert.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Figures 13 + 17",
         "scale-free networks (Barabasi-Albert, m=3): spider counts, "
         "runtime, largest pattern; sigma=2, K=10, Dmax=6");
  std::printf("vertices,edges,num_spiders,stage1_seconds,total_seconds,"
              "largest_vertices,largest_edges\n");

  for (int64_t n : {1000, 2000, 4000, 8000, 12000}) {
    Rng rng(4000 + n);
    GraphBuilder builder = GenerateBarabasiAlbert(n, 3, 100, &rng);
    Pattern large = RandomConnectedPattern(40, 0.15, 100, &rng);
    PatternInjector injector(&builder);
    if (!injector.Inject(large, 2, &rng).ok()) return 1;
    LabeledGraph graph = std::move(builder.Build()).value();

    SessionConfig config;
    TopKQuery query;
    config.min_support = 2;
    query.k = 10;
    query.dmax = 6;
    query.vmin = 40;
    query.rng_seed = 5;
    // Hubs explode the spider count (the Figure 17 effect); cap Stage I
    // like any practical run would and report the count reached.
    config.max_spiders = 2000000;
    config.max_star_leaves = 6;
    query.time_budget_seconds = 120;
    QueryResult mined;
    double seconds = RunSpiderMine(graph, config, query, &mined);

    std::printf("%lld,%lld,%lld,%.3f,%.3f,%d,%d\n",
                static_cast<long long>(n),
                static_cast<long long>(graph.NumEdges()),
                static_cast<long long>(mined.stats.num_spiders),
                mined.stats.stage1_seconds, seconds,
                LargestVertices(mined.patterns),
                LargestEdges(mined.patterns));
  }
  return 0;
}
