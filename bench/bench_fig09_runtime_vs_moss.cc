// Reproduces Figure 9: runtime of SpiderMine vs the complete miner
// (MoSS/gSpan stand-in) on Erdos-Renyi graphs with average degree 2 and
// f = 70 labels, |V| = 100..500 (the paper lowered the degree to 2 so
// MoSS could finish at all).
//
// Paper shape target: the complete miner's curve rises much faster than
// SpiderMine's; both stay under a few seconds at this scale.
//
// Output rows: vertices,spidermine_seconds,complete_seconds,complete_aborted

#include <cstdio>

#include "baselines/complete_miner.h"
#include "bench_util.h"
#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Figure 9",
         "runtime vs |V| (d=2, f=70): SpiderMine vs complete miner "
         "(MoSS stand-in); sigma=2, K=10, Dmax=4");
  std::printf("vertices,spidermine_seconds,complete_seconds,"
              "complete_aborted\n");

  for (int64_t n = 100; n <= 500; n += 100) {
    Rng rng(1000 + n);
    GraphBuilder builder = GenerateErdosRenyi(n, 2.0, 70, &rng);
    // A planted large pattern, as in the paper's synthetic recipe.
    Pattern large = RandomConnectedPattern(30, 0.15, 70, &rng);
    PatternInjector injector(&builder);
    if (!injector.Inject(large, 2, &rng).ok()) return 1;
    LabeledGraph graph = std::move(builder.Build()).value();

    SessionConfig config;
    TopKQuery query;
    config.min_support = 2;
    query.k = 10;
    query.dmax = 4;
    query.vmin = 30;
    query.rng_seed = 5;
    query.time_budget_seconds = 60;
    QueryResult mined;
    double spidermine_seconds = RunSpiderMine(graph, config, query, &mined);

    CompleteMinerConfig complete_config;
    complete_config.min_support = 2;
    complete_config.time_budget_seconds = 60;
    complete_config.max_patterns = 500000;
    WallTimer timer;
    Result<CompleteMineResult> complete = MineComplete(graph, complete_config);
    double complete_seconds = timer.ElapsedSeconds();

    std::printf("%lld,%.3f,%.3f,%d\n", static_cast<long long>(n),
                spidermine_seconds, complete_seconds,
                complete.ok() && complete->aborted ? 1 : 0);
  }
  return 0;
}
