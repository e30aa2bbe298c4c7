// Reproduces Figure 16 (the runtime table): wall times of SpiderMine,
// SUBDUE, SEuS and the complete miner (MoSS stand-in) on GID 1-5.
//
// Paper shape targets: SpiderMine fastest or near-fastest everywhere;
// SEuS degrades badly on the dense settings (GID 2/4); MoSS cannot finish
// GID 2/4/5 ("-" entries -- here: budget-aborted).
//
// Output rows: gid,algo,seconds,completed

#include <cstdio>

#include "baselines/complete_miner.h"
#include "baselines/seus.h"
#include "baselines/subdue.h"
#include "bench_util.h"
#include "gen/paper_datasets.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Figure 16",
         "runtime table on GID 1-5: SpiderMine / SUBDUE / SEuS / complete "
         "miner (MoSS stand-in, 60s budget = the paper's 10h abort rule)");
  std::printf("gid,algo,seconds,completed\n");

  for (int32_t gid = 1; gid <= 5; ++gid) {
    Result<PaperDataset> data = BuildGidDataset(gid, /*seed=*/42);
    if (!data.ok()) return 1;
    const LabeledGraph& graph = data->graph;

    {
      SessionConfig config;
      TopKQuery query;
      config.min_support = 2;
      query.k = 10;
      query.dmax = 4;
      query.vmin = 30;
      query.rng_seed = 42;
      query.time_budget_seconds = 120;
      QueryResult mined;
      double seconds = RunSpiderMine(graph, config, query, &mined);
      std::printf("%d,SpiderMine,%.3f,%d\n", gid, seconds,
                  mined.stats.timed_out ? 0 : 1);
    }
    {
      SubdueConfig config;
      config.max_expansions = 20000;
      config.time_budget_seconds = 60;
      WallTimer timer;
      Result<SubdueResult> r = SubdueDiscover(graph, config);
      std::printf("%d,SUBDUE,%.3f,%d\n", gid, timer.ElapsedSeconds(),
                  r.ok() && !r->timed_out ? 1 : 0);
    }
    {
      SeusConfig config;
      config.min_support = 2;
      config.time_budget_seconds = 60;
      WallTimer timer;
      Result<SeusResult> r = SeusDiscover(graph, config);
      std::printf("%d,SEuS,%.3f,%d\n", gid, timer.ElapsedSeconds(),
                  r.ok() && !r->timed_out ? 1 : 0);
    }
    {
      CompleteMinerConfig config;
      config.min_support = 2;
      config.max_patterns = 2000000;
      config.time_budget_seconds = 60;
      WallTimer timer;
      Result<CompleteMineResult> r = MineComplete(graph, config);
      // aborted == the paper's "-" (could not run to completion).
      std::printf("%d,CompleteMiner,%.3f,%d\n", gid, timer.ElapsedSeconds(),
                  r.ok() && !r->aborted ? 1 : 0);
    }
  }
  return 0;
}
