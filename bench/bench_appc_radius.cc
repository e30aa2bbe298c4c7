// Reproduces Appendix C.1(3): Stage I cost as a function of the spider
// radius r. The paper, on a 600-edge graph with 30 labels, measured 610ms
// (r=1), 2.7s (r=2), 87s (r=3) and ran out of memory at r=4.
//
// Shape target: runtime and spider count grow exponentially in r; we stop
// at r=3 and cap the spider count like any practical run (the cap standing
// in for the paper's out-of-memory).
//
// Output rows: radius,seconds,num_spiders,truncated

#include <cstdio>

#include "baselines/ball_miner.h"
#include "bench_util.h"
#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Appendix C.1(3)",
         "Stage I (all-spider mining) cost vs radius r on a 600-edge, "
         "30-label graph; paper: 0.61s / 2.7s / 87s / OOM for r=1..4");
  std::printf("radius,seconds,num_spiders,truncated\n");

  Rng rng(606);
  LabeledGraph graph =
      std::move(GenerateErdosRenyi(400, 3.0, 30, &rng).Build()).value();

  for (int32_t r = 1; r <= 3; ++r) {
    BallMinerConfig config;
    config.min_support = 2;
    config.radius = r;
    config.max_spiders = 500000;  // stands in for the paper's OOM at r=4
    config.max_embeddings_per_pattern = 2000;
    WallTimer timer;
    Result<BallMineResult> result = MineBallSpiders(graph, config);
    double seconds = timer.ElapsedSeconds();
    if (!result.ok()) {
      std::fprintf(stderr, "r=%d failed: %s\n", r,
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%d,%.3f,%zu,%d\n", r, seconds, result->spiders.size(),
                result->truncated ? 1 : 0);
  }
  return 0;
}
