// Reproduces Figure 20: pattern-size distribution on the DBLP co-author
// network (simulated; see DESIGN.md Sec. 4), SpiderMine vs SUBDUE, with
// minimum support 4 and K = 20 as in the paper.
//
// Paper shape targets: SpiderMine returns 20 large patterns with the
// largest around 25 vertices; SUBDUE's distribution stays at 1-2 vertices
// with a tail near ~16; small patterns are "almost ubiquitous" and
// uninformative, large ones reveal collaborative structure.
//
// Output rows: algo,size_vertices,count

#include <cstdio>
#include <map>

#include "baselines/subdue.h"
#include "bench_util.h"
#include "gen/dblp_sim.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Figure 20",
         "DBLP co-author network (simulated, 6508 authors / ~24.4k "
         "edges): SpiderMine (sigma=4, K=20) vs SUBDUE");
  std::printf("algo,size_vertices,count\n");

  DblpSimConfig sim;  // defaults match the paper's extracted graph
  Result<DblpDataset> data = GenerateDblpSim(sim);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  SessionConfig config;
  TopKQuery query;
  config.min_support = 4;
  query.k = 20;
  query.dmax = 8;
  query.vmin = 12;
  query.rng_seed = 42;
  query.time_budget_seconds = 180;
  QueryResult mined;
  RunSpiderMine(data->graph, config, query, &mined);
  for (const auto& [size, count] : SizeDistribution(mined.patterns)) {
    std::printf("SpiderMine,%d,%d\n", size, count);
  }

  SubdueConfig subdue_config;
  subdue_config.max_best = 20;
  subdue_config.max_expansions = 20000;
  subdue_config.time_budget_seconds = 90;
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
  return 0;
}
