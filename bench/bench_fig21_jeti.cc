// Reproduces Figure 21: pattern-size distribution on the Jeti call graph
// (simulated; see DESIGN.md Sec. 4), SpiderMine vs SUBDUE, minimum
// support 10. The paper notes MoSS and SEuS "can not return result with
// hours of running on this data" -- demonstrated here with budget aborts.
//
// Paper shape targets: SpiderMine's bars at ~28-32 vertices (the cohesive
// utility-class backbone), SUBDUE's at 1-4.
//
// Output rows: algo,size_vertices,count  (plus baseline-abort notes)

#include <cstdio>
#include <map>

#include "baselines/complete_miner.h"
#include "baselines/seus.h"
#include "baselines/subdue.h"
#include "bench_util.h"
#include "gen/callgraph_sim.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Figure 21",
         "Jeti call graph (simulated, 835 methods / 1764 calls / 267 "
         "classes): SpiderMine (sigma=10) vs SUBDUE; MoSS/SEuS budget "
         "behavior reported");
  std::printf("algo,size_vertices,count\n");

  CallGraphSimConfig sim;
  Result<CallGraphDataset> data = GenerateCallGraphSim(sim);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  SessionConfig config;
  TopKQuery query;
  config.min_support = 10;
  query.k = 10;
  query.dmax = 8;
  query.vmin = 10;
  query.rng_seed = 42;
  query.time_budget_seconds = 120;
  QueryResult mined;
  RunSpiderMine(data->graph, config, query, &mined);
  for (const auto& [size, count] : SizeDistribution(mined.patterns)) {
    std::printf("SpiderMine,%d,%d\n", size, count);
  }

  SubdueConfig subdue_config;
  subdue_config.max_best = 10;
  subdue_config.max_expansions = 10000;
  subdue_config.time_budget_seconds = 60;
  Result<SubdueResult> subdue = SubdueDiscover(data->graph, subdue_config);
  if (subdue.ok()) {
    std::map<int32_t, int32_t> hist;
    for (const SubduePattern& p : subdue->patterns) {
      ++hist[p.pattern.NumVertices()];
    }
    for (const auto& [size, count] : hist) {
      std::printf("SUBDUE,%d,%d\n", size, count);
    }
  }

  // The paper's "MoSS and SEuS can not return result" row: run with a
  // 20-second budget and report whether they completed.
  {
    CompleteMinerConfig complete_config;
    complete_config.min_support = 10;
    complete_config.time_budget_seconds = 20;
    Result<CompleteMineResult> r = MineComplete(data->graph, complete_config);
    std::printf("# complete-miner completed=%d (paper: '-')\n",
                r.ok() && !r->aborted ? 1 : 0);
  }
  {
    SeusConfig seus_config;
    seus_config.min_support = 10;
    seus_config.time_budget_seconds = 20;
    Result<SeusResult> r = SeusDiscover(data->graph, seus_config);
    int32_t largest = 0;
    if (r.ok()) {
      for (const SeusPattern& p : r->patterns) {
        largest = std::max(largest, p.pattern.NumVertices());
      }
    }
    std::printf("# seus completed=%d largest=%d (paper: '-')\n",
                r.ok() && !r->timed_out ? 1 : 0, largest);
  }
  return 0;
}
