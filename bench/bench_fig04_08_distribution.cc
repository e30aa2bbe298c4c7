// Reproduces Figures 4-8: pattern-size distributions mined by SpiderMine,
// SUBDUE and SEuS on the Table 1 synthetic datasets GID 1-5 (minimum
// support 2, K = 10, Dmax = 4).
//
// Paper shape targets:
//   * SpiderMine's bars sit at the large end (~30 vertices, the injected
//     large patterns + background interconnections);
//   * SUBDUE's bars sit at small sizes and shift smaller as small-pattern
//     support (GID 3/4) or count (GID 5) grows;
//   * SEuS produces mostly size <= 3 structures.
//
// Output rows: gid,algo,pattern_size_vertices,count

#include <cstdio>

#include "baselines/seus.h"
#include "baselines/subdue.h"
#include "bench_util.h"
#include "gen/paper_datasets.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Figures 4-8 (+ Tables 1-2)",
         "pattern-size distribution per GID 1-5: SpiderMine vs SUBDUE vs "
         "SEuS; sigma=2, K=10, Dmax=4");
  std::printf("gid,algo,size_vertices,count\n");

  for (int32_t gid = 1; gid <= 5; ++gid) {
    Result<PaperDataset> data = BuildGidDataset(gid, /*seed=*/42);
    if (!data.ok()) {
      std::fprintf(stderr, "GID %d: %s\n", gid,
                   data.status().ToString().c_str());
      return 1;
    }

    // SpiderMine (paper: sigma=2, K=10, Dmax=4).
    SessionConfig config;
    TopKQuery query;
    config.min_support = 2;
    query.k = 10;
    query.dmax = 4;
    query.vmin = 30;
    query.rng_seed = 42;
    query.time_budget_seconds = 120;
    QueryResult mined;
    RunSpiderMine(data->graph, config, query, &mined);
    for (const auto& [size, count] : SizeDistribution(mined.patterns)) {
      std::printf("%d,SpiderMine,%d,%d\n", gid, size, count);
    }

    // SUBDUE.
    SubdueConfig subdue_config;
    subdue_config.max_best = 10;
    subdue_config.max_expansions = 8000;
    subdue_config.time_budget_seconds = 60;
    Result<SubdueResult> subdue = SubdueDiscover(data->graph, subdue_config);
    if (subdue.ok()) {
      std::map<int32_t, int32_t> hist;
      for (const SubduePattern& p : subdue->patterns) {
        ++hist[p.pattern.NumVertices()];
      }
      for (const auto& [size, count] : hist) {
        std::printf("%d,SUBDUE,%d,%d\n", gid, size, count);
      }
    }

    // SEuS.
    SeusConfig seus_config;
    seus_config.min_support = 2;
    seus_config.time_budget_seconds = 60;
    Result<SeusResult> seus = SeusDiscover(data->graph, seus_config);
    if (seus.ok()) {
      std::map<int32_t, int32_t> hist;
      int32_t emitted = 0;
      for (const SeusPattern& p : seus->patterns) {
        if (emitted++ >= 10) break;  // top-10 like the others
        ++hist[p.pattern.NumVertices()];
      }
      for (const auto& [size, count] : hist) {
        std::printf("%d,SEuS,%d,%d\n", gid, size, count);
      }
    }
  }
  return 0;
}
