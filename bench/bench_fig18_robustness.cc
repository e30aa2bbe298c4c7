// Reproduces Table 3 + Figure 18: robustness of the top-5 result against
// increasing small-pattern noise (GID 6-10: graphs growing from ~20k to
// ~57k vertices, 50 injected small patterns with rising support, 5 large
// 50-vertex patterns with support 10-15; Dmax = 6, sigma = 10, K = 5).
//
// Paper shape target: the top-5 largest patterns stay roughly constant in
// size (~120-150 edges in the paper's plot) across all five noise levels;
// an occasional outlier comes from two injected patterns overlapping.
//
// Output rows: gid,rank,size_edges,size_vertices

#include <cstdio>

#include "bench_util.h"
#include "gen/paper_datasets.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Table 3 + Figure 18",
         "robustness against small-pattern noise (GID 6-10): top-5 "
         "pattern sizes; sigma=10, K=5, Dmax=6");
  std::printf("gid,rank,size_edges,size_vertices\n");

  for (int32_t gid = 6; gid <= 10; ++gid) {
    Result<PaperDataset> data = BuildGidDataset(gid, /*seed=*/42);
    if (!data.ok()) {
      std::fprintf(stderr, "GID %d: %s\n", gid,
                   data.status().ToString().c_str());
      return 1;
    }
    SessionConfig config;
    TopKQuery query;
    config.min_support = 10;
    query.k = 5;
    query.dmax = 6;
    query.vmin = 50;
    query.rng_seed = 42;
    query.time_budget_seconds = 240;
    QueryResult mined;
    RunSpiderMine(data->graph, config, query, &mined);
    for (size_t rank = 0; rank < mined.patterns.size(); ++rank) {
      std::printf("%d,%zu,%d,%d\n", gid, rank + 1,
                  mined.patterns[rank].NumEdges(),
                  mined.patterns[rank].NumVertices());
    }
  }
  return 0;
}
