#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/barabasi_albert.h"
#include "gen/callgraph_sim.h"
#include "gen/dblp_sim.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/paper_datasets.h"
#include "gen/pattern_factory.h"
#include "gen/transaction_gen.h"
#include "graph/degree_stats.h"
#include "pattern/vf2.h"
#include "support/support_measure.h"

namespace spidermine {
namespace {

TEST(ErdosRenyiTest, HitsTargetEdgeCountAndLabels) {
  Rng rng(1);
  LabeledGraph g =
      std::move(GenerateErdosRenyi(500, 4.0, 10, &rng).Build()).value();
  EXPECT_EQ(g.NumVertices(), 500);
  EXPECT_EQ(g.NumEdges(), 1000);  // n*d/2
  EXPECT_LE(g.NumLabels(), 10);
  DegreeStats stats = ComputeDegreeStats(g);
  EXPECT_NEAR(stats.average, 4.0, 0.01);
}

TEST(ErdosRenyiTest, TinyGraphsClampEdges) {
  Rng rng(2);
  LabeledGraph g =
      std::move(GenerateErdosRenyi(3, 10.0, 2, &rng).Build()).value();
  EXPECT_LE(g.NumEdges(), 3);  // max possible for n=3
}

TEST(ErdosRenyiTest, DeterministicForSeed) {
  Rng rng1(7);
  Rng rng2(7);
  LabeledGraph a =
      std::move(GenerateErdosRenyi(100, 3.0, 5, &rng1).Build()).value();
  LabeledGraph b =
      std::move(GenerateErdosRenyi(100, 3.0, 5, &rng2).Build()).value();
  ASSERT_EQ(a.NumEdges(), b.NumEdges());
  for (VertexId v = 0; v < a.NumVertices(); ++v) {
    EXPECT_EQ(a.Label(v), b.Label(v));
  }
}

TEST(BarabasiAlbertTest, ProducesSkewedDegrees) {
  Rng rng(3);
  LabeledGraph g =
      std::move(GenerateBarabasiAlbert(1000, 2, 10, &rng).Build()).value();
  EXPECT_EQ(g.NumVertices(), 1000);
  DegreeStats stats = ComputeDegreeStats(g);
  // Preferential attachment: hub degree far above the average.
  EXPECT_GT(stats.max, static_cast<int64_t>(stats.average * 5));
}

TEST(BarabasiAlbertTest, EveryLateVertexHasEdges) {
  Rng rng(4);
  LabeledGraph g =
      std::move(GenerateBarabasiAlbert(200, 3, 5, &rng).Build()).value();
  for (VertexId v = 10; v < g.NumVertices(); ++v) {
    EXPECT_GE(g.Degree(v), 1);
  }
}

TEST(PatternFactoryTest, ConnectedWithRequestedSize) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Pattern p = RandomConnectedPattern(15, 0.2, 6, &rng);
    EXPECT_EQ(p.NumVertices(), 15);
    EXPECT_TRUE(p.IsConnected());
    EXPECT_GE(p.NumEdges(), 14);  // spanning tree at minimum
    for (VertexId v = 0; v < p.NumVertices(); ++v) {
      EXPECT_LT(p.Label(v), 6);
    }
  }
}

TEST(PatternFactoryTest, DiameterBoundHolds) {
  Rng rng(6);
  for (int trial = 0; trial < 10; ++trial) {
    Pattern p = RandomPatternWithDiameter(20, 4, 5, &rng);
    EXPECT_LE(p.Diameter(), 4);
    EXPECT_TRUE(p.IsConnected());
  }
}

TEST(InjectionTest, PlantedPatternIsEmbeddedDisjointly) {
  Rng rng(8);
  GraphBuilder builder = GenerateErdosRenyi(300, 2.0, 8, &rng);
  Pattern planted = RandomConnectedPattern(8, 0.2, 8, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 4, &rng).ok());
  EXPECT_EQ(injector.NumClaimedVertices(), 32);
  LabeledGraph g = std::move(builder.Build()).value();
  Vf2Options options;
  options.max_embeddings = 5000;
  OccurrenceList embeddings = FindEmbeddings(planted, g, options);
  DedupEmbeddingsByImage(&embeddings);
  // 4 vertex-disjoint embeddings exist by construction, so the exact MIS
  // support is >= 4; the greedy approximation may lose one to an
  // unfortunate pick order but can never lose more than half.
  EXPECT_GE(static_cast<int64_t>(embeddings.size()), 4);
  int64_t support = ComputeSupport(SupportMeasureKind::kGreedyMisVertex,
                                   planted, embeddings);
  EXPECT_GE(support, 3);
}

TEST(InjectionTest, FailsWhenGraphTooSmall) {
  Rng rng(9);
  GraphBuilder builder = GenerateErdosRenyi(10, 1.0, 2, &rng);
  Pattern planted = RandomConnectedPattern(8, 0.0, 2, &rng);
  PatternInjector injector(&builder);
  Status status = injector.Inject(planted, 2, &rng);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
}

TEST(PaperDatasetsTest, Table1SpecsMatchPaper) {
  GidSpec g1 = Table1Spec(1);
  EXPECT_EQ(g1.num_vertices, 400);
  EXPECT_EQ(g1.num_labels, 70);
  EXPECT_EQ(g1.avg_degree, 2);
  EXPECT_EQ(g1.num_large, 5);
  EXPECT_EQ(g1.large_vertices, 30);
  EXPECT_EQ(g1.num_small, 5);
  GidSpec g5 = Table1Spec(5);
  EXPECT_EQ(g5.num_vertices, 600);
  EXPECT_EQ(g5.num_labels, 130);
  EXPECT_EQ(g5.num_small, 20);
  EXPECT_EQ(Table1Spec(6).gid, 0);
}

TEST(PaperDatasetsTest, Table3SpecsMatchPaper) {
  GidSpec g6 = Table3Spec(6);
  EXPECT_EQ(g6.num_vertices, 20490);
  EXPECT_EQ(g6.num_labels, 1064);
  EXPECT_EQ(g6.large_vertices, 50);
  EXPECT_EQ(g6.num_small, 50);
  EXPECT_EQ(g6.small_support_lo, 5);
  GidSpec g10 = Table3Spec(10);
  EXPECT_EQ(g10.num_vertices, 56740);
  EXPECT_EQ(g10.small_support_hi, 35);
}

TEST(PaperDatasetsTest, BuildGid1HasGroundTruth) {
  Result<PaperDataset> data = BuildGidDataset(1, /*seed=*/42);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->graph.NumVertices(), 400);
  EXPECT_EQ(data->large_patterns.size(), 5u);
  EXPECT_EQ(data->small_patterns.size(), 5u);
  for (const Pattern& p : data->large_patterns) {
    EXPECT_EQ(p.NumVertices(), 30);
    EXPECT_TRUE(ContainsEmbedding(p, data->graph));
  }
}

TEST(PaperDatasetsTest, InvalidGidRejected) {
  EXPECT_FALSE(BuildGidDataset(0, 1).ok());
  EXPECT_FALSE(BuildGidDataset(11, 1).ok());
}

TEST(TransactionGenTest, DatabaseShapeMatchesConfig) {
  TransactionDatasetConfig config;
  config.num_graphs = 4;
  config.vertices_per_graph = 80;
  config.avg_degree = 3.0;
  config.num_labels = 10;
  config.num_large = 2;
  config.large_vertices = 8;
  config.large_txn_support = 3;
  Result<TransactionDataset> data = GenerateTransactionDataset(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->database.size(), 4u);
  for (const LabeledGraph& g : data->database) {
    EXPECT_EQ(g.NumVertices(), 80);
  }
  EXPECT_EQ(data->large_patterns.size(), 2u);
  // Each large pattern embeds in at least large_txn_support transactions.
  for (const Pattern& p : data->large_patterns) {
    int32_t hits = 0;
    for (const LabeledGraph& g : data->database) {
      if (ContainsEmbedding(p, g)) ++hits;
    }
    EXPECT_GE(hits, 3);
  }
}

TEST(DblpSimTest, MatchesPaperScale) {
  DblpSimConfig config;
  Result<DblpDataset> data = GenerateDblpSim(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->graph.NumVertices(), 6508);
  // Edge total: target plus planted pattern edges, within a small margin.
  EXPECT_GE(data->graph.NumEdges(), 24000);
  EXPECT_LE(data->graph.NumEdges(), 27000);
  EXPECT_LE(data->graph.NumLabels(), 4);
  // Label skew: beginners outnumber prolific authors.
  std::vector<int64_t> hist = LabelHistogram(data->graph);
  EXPECT_GT(hist[kBeginner], hist[kProlific] * 5);
}

TEST(DblpSimTest, PlantedPatternsRecoverable) {
  DblpSimConfig config;
  config.num_authors = 2000;
  config.target_edges = 7000;
  config.num_communities = 80;
  Result<DblpDataset> data = GenerateDblpSim(config);
  ASSERT_TRUE(data.ok());
  EXPECT_TRUE(ContainsEmbedding(data->common_pattern, data->graph));
  for (const Pattern& p : data->cluster_patterns) {
    EXPECT_TRUE(ContainsEmbedding(p, data->graph));
  }
}

TEST(CallGraphSimTest, MatchesJetiStatistics) {
  CallGraphSimConfig config;
  Result<CallGraphDataset> data = GenerateCallGraphSim(config);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->graph.NumVertices(), 835);
  EXPECT_GE(data->graph.NumEdges(), 1700);
  EXPECT_LE(data->graph.NumEdges(), 2100);
  DegreeStats stats = ComputeDegreeStats(data->graph);
  // Paper: avg degree 2.13 (edge-count sense: 2m/n ~ 4.3 as undirected
  // incidence; we check the hub dominates and the graph is sparse).
  EXPECT_GE(stats.max, 60);
  EXPECT_LE(stats.average, 6.0);
  EXPECT_TRUE(ContainsEmbedding(data->cohesive_pattern, data->graph));
}

}  // namespace
}  // namespace spidermine
