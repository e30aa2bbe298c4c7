// Reproduces Figures 14 and 15: graph-transaction setting, SpiderMine vs
// ORIGAMI. Database: 10 Erdos-Renyi graphs (500 vertices, avg degree 5,
// 65 labels) with 5 injected 30-vertex patterns. The Figure 15 variant
// additionally injects 100 small 5-vertex patterns.
//
// Paper shape targets: both algorithms find large patterns in the clean
// setting (Fig. 14: ORIGAMI "does capture some of the large patterns");
// with many small patterns ORIGAMI's distribution collapses to the small
// end while SpiderMine still returns the ~30-vertex patterns (Fig. 15).
//
// Output rows: variant,algo,size_vertices,count

#include <cstdio>
#include <map>

#include "baselines/origami.h"
#include "bench_util.h"
#include "gen/transaction_gen.h"
#include "spidermine/txn_adapter.h"

namespace {

void RunVariant(const char* variant, int32_t num_small) {
  using namespace spidermine;
  TransactionDatasetConfig gen;
  gen.num_graphs = 10;
  gen.vertices_per_graph = 500;
  gen.avg_degree = 5.0;
  gen.num_labels = 65;
  gen.num_large = 5;
  gen.large_vertices = 30;
  gen.large_txn_support = 6;
  gen.num_small = num_small;
  gen.small_vertices = 5;
  gen.small_txn_support = 8;
  gen.seed = 99;
  Result<TransactionDataset> data = GenerateTransactionDataset(gen);
  if (!data.ok()) {
    std::fprintf(stderr, "%s: generator failed: %s\n", variant,
                 data.status().ToString().c_str());
    return;
  }
  Result<TransactionGraph> txn = BuildTransactionGraph(data->database);
  if (!txn.ok()) return;

  SessionConfig config;
  TopKQuery query;
  config.min_support = 4;
  query.k = 10;
  query.dmax = 8;
  query.vmin = 25;
  query.rng_seed = 13;
  query.time_budget_seconds = 180;
  Result<QueryResult> mined = MineTransactions(*txn, config, query);
  if (mined.ok()) {
    std::map<int32_t, int32_t> hist;
    for (const MinedPattern& p : mined->patterns) ++hist[p.NumVertices()];
    for (const auto& [size, count] : hist) {
      std::printf("%s,SpiderMine,%d,%d\n", variant, size, count);
    }
  }

  OrigamiConfig origami;
  origami.min_support = 4;
  origami.num_samples = 200;
  origami.max_representatives = 10;
  origami.seed = 13;
  origami.time_budget_seconds = 120;
  Result<OrigamiResult> rep = OrigamiMine(*txn, origami);
  if (rep.ok()) {
    std::map<int32_t, int32_t> hist;
    for (const OrigamiPattern& p : rep->representatives) {
      ++hist[p.pattern.NumVertices()];
    }
    for (const auto& [size, count] : hist) {
      std::printf("%s,ORIGAMI,%d,%d\n", variant, size, count);
    }
  }
}

}  // namespace

int main() {
  using namespace spidermine::bench;
  Banner("Figures 14-15",
         "graph-transaction setting: SpiderMine vs ORIGAMI; 10x ER(500, "
         "d=5, f=65), 5 large 30-vertex patterns; Fig. 15 adds 100 small "
         "patterns");
  std::printf("variant,algo,size_vertices,count\n");
  RunVariant("fig14_few_small", /*num_small=*/0);
  RunVariant("fig15_more_small", /*num_small=*/100);
  return 0;
}
