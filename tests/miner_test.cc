#include "spidermine/session.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "gen/transaction_gen.h"
#include "graph/graph_builder.h"
#include "pattern/vf2.h"
#include "spidermine/txn_adapter.h"

namespace spidermine {
namespace {

LabeledGraph TwoPaths() {
  GraphBuilder b;
  for (int copy = 0; copy < 2; ++copy) {
    VertexId base = b.AddVertex(0);
    for (LabelId l = 1; l <= 4; ++l) b.AddVertex(l);
    for (int i = 0; i < 4; ++i) b.AddEdge(base + i, base + i + 1);
  }
  return std::move(b.Build()).value();
}

TEST(MinerTest, RecoversFullPathPattern) {
  LabeledGraph g = TwoPaths();
  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 3;
  query.dmax = 4;
  query.vmin = 5;
  query.rng_seed = 7;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  const MinedPattern& top = result->patterns.front();
  EXPECT_EQ(top.NumVertices(), 5);
  EXPECT_EQ(top.NumEdges(), 4);
  EXPECT_GE(top.support, 2);
  // Results are sorted by size descending.
  for (size_t i = 1; i < result->patterns.size(); ++i) {
    EXPECT_GE(result->patterns[i - 1].NumEdges(),
              result->patterns[i].NumEdges());
  }
}

TEST(MinerTest, FindsInjectedPatternInNoise) {
  Rng rng(2024);
  GraphBuilder builder = GenerateErdosRenyi(200, 2.0, 20, &rng);
  Pattern planted = RandomConnectedPattern(12, 0.15, 20, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 3, &rng).ok());
  LabeledGraph g = std::move(builder.Build()).value();

  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 5;
  query.dmax = 8;
  query.vmin = 12;
  query.rng_seed = 31;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  // The top pattern should capture (most of) the planted 12-vertex pattern.
  EXPECT_GE(result->patterns.front().NumVertices(), 10)
      << "top pattern too small: "
      << result->patterns.front().pattern.ToString();
  EXPECT_GT(result->stats.merges, 0);
  EXPECT_GT(result->stats.num_spiders, 0);
  EXPECT_GT(result->stats.seed_count_m, 0);
}

TEST(MinerTest, ReturnedEmbeddingsAreRealEmbeddings) {
  LabeledGraph g = TwoPaths();
  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 2;
  query.dmax = 4;
  query.vmin = 5;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  for (const MinedPattern& mp : result->patterns) {
    for (OccurrenceList::Row e : mp.embeddings) {
      ASSERT_EQ(e.size(), static_cast<size_t>(mp.NumVertices()));
      for (VertexId pv = 0; pv < mp.NumVertices(); ++pv) {
        EXPECT_EQ(g.Label(e[pv]), mp.pattern.Label(pv));
      }
      for (const auto& [pu, pv] : mp.pattern.Edges()) {
        EXPECT_TRUE(g.HasEdge(e[pu], e[pv]));
      }
    }
  }
}

TEST(MinerTest, RespectsK) {
  LabeledGraph g = TwoPaths();
  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 1;
  query.dmax = 4;
  query.vmin = 5;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->patterns.size(), 1u);
}

TEST(MinerTest, SupportThresholdExcludesRarePatterns) {
  LabeledGraph g = TwoPaths();
  SessionConfig config;
  TopKQuery query;
  config.min_support = 3;  // only two copies exist
  query.k = 5;
  query.dmax = 4;
  query.vmin = 5;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  for (const MinedPattern& mp : result->patterns) {
    EXPECT_GE(mp.support, 3);
  }
}

TEST(MinerTest, InvalidConfigsRejected) {
  LabeledGraph g = TwoPaths();
  auto rejected = [&g](SessionConfig config, TopKQuery query) {
    return !MineOnce(&g, config, query).ok();
  };
  SessionConfig config;
  config.min_support = 0;
  EXPECT_TRUE(rejected(config, {}));
  TopKQuery query;
  query.k = 0;
  EXPECT_TRUE(rejected({}, query));
  query = {};
  query.dmax = 0;
  EXPECT_TRUE(rejected({}, query));
  query = {};
  query.epsilon = 1.5;
  EXPECT_TRUE(rejected({}, query));
  query = {};
  query.support_measure = SupportMeasureKind::kTransaction;
  EXPECT_TRUE(rejected({}, query));
  query = {};
  query.min_support = 1;  // below the session's default floor of 2
  EXPECT_TRUE(rejected({}, query));
}

TEST(MinerTest, EmptyGraphYieldsEmptyResult) {
  GraphBuilder b;
  LabeledGraph g = std::move(b.Build()).value();
  SessionConfig config;
  TopKQuery query;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->patterns.empty());
}

TEST(MinerTest, SeedOverrideIsHonored) {
  LabeledGraph g = TwoPaths();
  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 2;
  query.dmax = 4;
  query.seed_count_override = 4;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.seed_count_m, 4);
}

TEST(MinerTest, DeterministicForFixedSeed) {
  LabeledGraph g = TwoPaths();
  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 3;
  query.dmax = 4;
  query.vmin = 5;
  query.rng_seed = 99;
  Result<QueryResult> a = MineOnce(&g, config, query);
  Result<QueryResult> b = MineOnce(&g, config, query);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->patterns.size(), b->patterns.size());
  for (size_t i = 0; i < a->patterns.size(); ++i) {
    EXPECT_TRUE(ArePatternsIsomorphic(a->patterns[i].pattern,
                                      b->patterns[i].pattern));
    EXPECT_EQ(a->patterns[i].support, b->patterns[i].support);
  }
}

TEST(TxnAdapterTest, DisjointUnionPreservesStructure) {
  std::vector<LabeledGraph> database;
  database.push_back(TwoPaths());
  database.push_back(TwoPaths());
  Result<TransactionGraph> txn = BuildTransactionGraph(database);
  ASSERT_TRUE(txn.ok());
  EXPECT_EQ(txn->graph.NumVertices(), 20);
  EXPECT_EQ(txn->graph.NumEdges(), 16);
  EXPECT_EQ(txn->num_transactions, 2);
  ASSERT_EQ(txn->txn_of_vertex.size(), 20u);
  EXPECT_EQ(txn->txn_of_vertex[0], 0);
  EXPECT_EQ(txn->txn_of_vertex[10], 1);
  // No cross-transaction edges.
  for (VertexId v = 0; v < txn->graph.NumVertices(); ++v) {
    for (VertexId u : txn->graph.Neighbors(v)) {
      EXPECT_EQ(txn->txn_of_vertex[v], txn->txn_of_vertex[u]);
    }
  }
}

TEST(TxnAdapterTest, MineTransactionsFindsSharedPattern) {
  TransactionDatasetConfig gen_config;
  gen_config.num_graphs = 6;
  gen_config.vertices_per_graph = 60;
  gen_config.avg_degree = 2.0;
  gen_config.num_labels = 12;
  gen_config.num_large = 1;
  gen_config.large_vertices = 10;
  gen_config.large_txn_support = 4;
  gen_config.seed = 3;
  Result<TransactionDataset> data = GenerateTransactionDataset(gen_config);
  ASSERT_TRUE(data.ok());
  Result<TransactionGraph> txn = BuildTransactionGraph(data->database);
  ASSERT_TRUE(txn.ok());

  SessionConfig config;
  TopKQuery query;
  config.min_support = 3;  // transactions
  query.k = 3;
  query.dmax = 8;
  query.vmin = 10;
  query.rng_seed = 5;
  Result<QueryResult> result = MineTransactions(*txn, config, query);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  EXPECT_GE(result->patterns.front().NumVertices(), 8)
      << result->patterns.front().pattern.ToString();
  EXPECT_GE(result->patterns.front().support, 3);
}

}  // namespace
}  // namespace spidermine
