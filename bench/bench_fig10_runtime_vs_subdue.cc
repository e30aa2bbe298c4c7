// Reproduces Figure 10: runtime of SpiderMine vs SUBDUE as the graph grows
// (|V| = 500..10500, average degree 3, 100 labels, sigma = 2, K = 10,
// Dmax = 10 -- the paper's setting for this sweep).
//
// Paper shape target: SUBDUE's runtime "quickly exhibits exponential
// growth curve while SpiderMine grows slowly".
//
// Output rows: vertices,spidermine_seconds,subdue_seconds,subdue_timed_out

#include <cstdio>

#include "baselines/subdue.h"
#include "bench_util.h"
#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Figure 10",
         "runtime vs |V| (d=3, f=100): SpiderMine vs SUBDUE; sigma=2, "
         "K=10, Dmax=10");
  std::printf("vertices,spidermine_seconds,subdue_seconds,"
              "subdue_timed_out\n");

  for (int64_t n : {500, 1500, 3500, 6500, 10500}) {
    Rng rng(2000 + n);
    GraphBuilder builder = GenerateErdosRenyi(n, 3.0, 100, &rng);
    Pattern large = RandomConnectedPattern(30, 0.15, 100, &rng);
    PatternInjector injector(&builder);
    if (!injector.Inject(large, 2, &rng).ok()) return 1;
    LabeledGraph graph = std::move(builder.Build()).value();

    SessionConfig config;
    TopKQuery query;
    config.min_support = 2;
    query.k = 10;
    query.dmax = 10;
    query.vmin = 30;
    query.rng_seed = 5;
    query.time_budget_seconds = 120;
    QueryResult mined;
    double spidermine_seconds = RunSpiderMine(graph, config, query, &mined);

    SubdueConfig subdue_config;
    subdue_config.max_expansions = 100000;
    subdue_config.time_budget_seconds = 120;
    WallTimer timer;
    Result<SubdueResult> subdue = SubdueDiscover(graph, subdue_config);
    double subdue_seconds = timer.ElapsedSeconds();

    std::printf("%lld,%.3f,%.3f,%d\n", static_cast<long long>(n),
                spidermine_seconds, subdue_seconds,
                subdue.ok() && subdue->timed_out ? 1 : 0);
  }
  return 0;
}
