// Ablation: post-growth internal-edge closure (spidermine/closure.h).
//
// The star-based Stage I drops leaf-leaf edges, and SpiderExtend's Internal
// Integrity rule never re-adds an edge between two already-grown vertices,
// so without closure the miner structurally cannot recover cycle-closing
// edges. This bench plants cyclic patterns in ER backgrounds and compares
// the top-pattern size and oracle agreement with closure on vs off.
//
// Output rows: instance,closure,largest_edges,oracle_edges,closure_edges_added

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "spidermine/oracle.h"

int main() {
  using namespace spidermine;
  using namespace spidermine::bench;
  Banner("Closure ablation",
         "planted cyclic pattern recovery with internal-edge closure on/off; "
         "oracle = exact top-1 by complete enumeration");
  std::printf("instance,closure,largest_edges,oracle_edges,closure_edges_added\n");

  for (uint64_t instance = 0; instance < 4; ++instance) {
    Rng rng(100 + instance);
    GraphBuilder builder = GenerateErdosRenyi(150, 1.5, 15, &rng);
    // extra_edge_fraction 0.5 makes the planted pattern decidedly cyclic.
    Pattern planted = RandomConnectedPattern(9, 0.5, 15, &rng);
    PatternInjector injector(&builder);
    if (!injector.Inject(planted, 3, &rng).ok()) continue;
    const LabeledGraph graph = std::move(builder.Build()).value();

    OracleConfig oracle_config;
    oracle_config.min_support = 3;
    oracle_config.k = 1;
    oracle_config.dmax = 6;
    Result<OracleResult> oracle = ExactTopKLargest(graph, oracle_config);
    const int32_t oracle_edges =
        oracle.ok() && !oracle->top_k.empty()
            ? oracle->top_k.front().pattern.NumEdges()
            : -1;

    for (bool closure : {false, true}) {
      SessionConfig config;
      TopKQuery query;
      config.min_support = 3;
      query.k = 5;
      query.dmax = 6;
      query.vmin = 9;
      query.rng_seed = 11;
      query.restarts = 3;
      query.close_internal_edges = closure;
      QueryResult mined;
      RunSpiderMine(graph, config, query, &mined);
      std::printf("%llu,%s,%d,%d,%lld\n",
                  static_cast<unsigned long long>(instance),
                  closure ? "on" : "off", LargestEdges(mined.patterns),
                  oracle_edges,
                  static_cast<long long>(mined.stats.closure_edges_added));
    }
  }
  return 0;
}
