// Reproduces Figure 19: sensitivity of the top-5 result to the diameter
// bound Dmax (d = Dmax/2 in {1, 2, 3, 4}), on a GID-7-style dataset.
//
// Paper shape target: results are robust "unless Dmax is too small" --
// d = 1 truncates growth before separated seed spiders can merge, so the
// recovered patterns shrink; d >= 2 recovers the full sizes.
//
// Output rows: dmax,rank,size_vertices,size_edges

#include <cstdio>

#include "bench_util.h"
#include "gen/paper_datasets.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Figure 19",
         "top-5 sizes vs Dmax (d = Dmax/2 in 1..4) on a GID-7-style "
         "dataset; sigma=10, K=5");
  std::printf("dmax,rank,size_vertices,size_edges\n");

  // GID-7 recipe scaled to keep the 4-point sweep fast.
  GidSpec spec = Table3Spec(7);
  spec.num_vertices = 8000;
  spec.num_labels = 420;
  Result<PaperDataset> data = BuildGidDataset(spec, /*seed=*/7);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }

  for (int32_t d = 1; d <= 4; ++d) {
    SessionConfig config;
    TopKQuery query;
    config.min_support = 10;
    query.k = 5;
    query.dmax = 2 * d;
    query.vmin = 50;
    query.rng_seed = 42;
    query.time_budget_seconds = 120;
    QueryResult mined;
    RunSpiderMine(data->graph, config, query, &mined);
    for (size_t rank = 0; rank < mined.patterns.size(); ++rank) {
      std::printf("%d,%zu,%d,%d\n", query.dmax, rank + 1,
                  mined.patterns[rank].NumVertices(),
                  mined.patterns[rank].NumEdges());
    }
  }
  return 0;
}
