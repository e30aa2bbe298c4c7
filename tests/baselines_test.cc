#include <gtest/gtest.h>

#include <map>
#include <string>

#include "baselines/complete_miner.h"
#include "baselines/grew.h"
#include "baselines/origami.h"
#include "baselines/seus.h"
#include "baselines/subdue.h"
#include "common/rng.h"
#include "common/strings.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "gen/transaction_gen.h"
#include "graph/graph_builder.h"
#include "pattern/vf2.h"

namespace spidermine {
namespace {

/// Three copies of the labeled triangle (0,1,2) -- a crisp repeated
/// substructure every baseline should notice.
LabeledGraph ThreeTriangles() {
  GraphBuilder b;
  for (int copy = 0; copy < 3; ++copy) {
    VertexId base = b.AddVertex(0);
    b.AddVertex(1);
    b.AddVertex(2);
    b.AddEdge(base, base + 1);
    b.AddEdge(base + 1, base + 2);
    b.AddEdge(base, base + 2);
  }
  return std::move(b.Build()).value();
}

// ---------------------------------------------------------------- SUBDUE

TEST(SubdueTest, FindsRepeatedTriangle) {
  LabeledGraph g = ThreeTriangles();
  SubdueConfig config;
  Result<SubdueResult> result = SubdueDiscover(g, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  // The best compressor should be the full triangle (3 instances).
  const SubduePattern& best = result->patterns.front();
  EXPECT_EQ(best.pattern.NumEdges(), 3);
  EXPECT_EQ(best.instances, 3);
  EXPECT_GT(best.value, 1.0) << "collapsing triangles must compress";
}

TEST(SubdueTest, ValuesSortedDescending) {
  LabeledGraph g = ThreeTriangles();
  Result<SubdueResult> result = SubdueDiscover(g, {});
  ASSERT_TRUE(result.ok());
  for (size_t i = 1; i < result->patterns.size(); ++i) {
    EXPECT_GE(result->patterns[i - 1].value, result->patterns[i].value);
  }
}

TEST(SubdueTest, BeamWidthOneStillWorks) {
  LabeledGraph g = ThreeTriangles();
  SubdueConfig config;
  config.beam_width = 1;
  Result<SubdueResult> result = SubdueDiscover(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->patterns.empty());
}

TEST(SubdueTest, InvalidBeamRejected) {
  LabeledGraph g = ThreeTriangles();
  SubdueConfig config;
  config.beam_width = 0;
  EXPECT_FALSE(SubdueDiscover(g, config).ok());
}

TEST(SubdueTest, PrefersFrequentSmallOverRareLarge) {
  // The paper's observation: SUBDUE shifts toward small high-frequency
  // structures. Plant a frequent small pattern and a rare large one.
  Rng rng(12);
  GraphBuilder builder = GenerateErdosRenyi(400, 1.5, 25, &rng);
  Pattern small_frequent = RandomConnectedPattern(4, 0.0, 25, &rng);
  Pattern large_rare = RandomConnectedPattern(25, 0.1, 25, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(small_frequent, 20, &rng).ok());
  ASSERT_TRUE(injector.Inject(large_rare, 2, &rng).ok());
  LabeledGraph g = std::move(builder.Build()).value();
  Result<SubdueResult> result = SubdueDiscover(g, {});
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  EXPECT_LT(result->patterns.front().pattern.NumVertices(), 15)
      << "SUBDUE should favor the frequent small structure";
}

// ------------------------------------------------------------------ SEuS

TEST(SeusTest, FindsFrequentEdgesAndTriangles) {
  LabeledGraph g = ThreeTriangles();
  SeusConfig config;
  config.min_support = 3;
  Result<SeusResult> result = SeusDiscover(g, config);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->patterns.empty());
  // All three edge kinds are frequent.
  int32_t edge_patterns = 0;
  for (const SeusPattern& p : result->patterns) {
    if (p.pattern.NumEdges() == 1) ++edge_patterns;
    EXPECT_GE(p.support, 3);
    EXPECT_GE(p.summary_estimate, p.support)
        << "summary estimate must upper-bound verified support";
  }
  EXPECT_EQ(edge_patterns, 3);
}

TEST(SeusTest, OutputLimitedToSmallStructures) {
  LabeledGraph g = ThreeTriangles();
  SeusConfig config;
  config.min_support = 2;
  config.max_candidate_edges = 3;
  Result<SeusResult> result = SeusDiscover(g, config);
  ASSERT_TRUE(result.ok());
  for (const SeusPattern& p : result->patterns) {
    EXPECT_LE(p.pattern.NumEdges(), 3)
        << "SEuS candidates are depth-limited";
  }
}

TEST(SeusTest, SummaryPrunesInfrequentLabelPairs) {
  // One rare edge kind (labels 8-9 appear once).
  GraphBuilder b;
  VertexId a = b.AddVertex(8);
  VertexId c = b.AddVertex(9);
  b.AddEdge(a, c);
  for (int copy = 0; copy < 3; ++copy) {
    VertexId u = b.AddVertex(0);
    VertexId v = b.AddVertex(1);
    b.AddEdge(u, v);
  }
  LabeledGraph g = std::move(b.Build()).value();
  SeusConfig config;
  config.min_support = 2;
  Result<SeusResult> result = SeusDiscover(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->candidates_pruned_by_summary, 0);
  for (const SeusPattern& p : result->patterns) {
    for (VertexId v = 0; v < p.pattern.NumVertices(); ++v) {
      EXPECT_LT(p.pattern.Label(v), 8);
    }
  }
}

TEST(SeusTest, InvalidConfigRejected) {
  LabeledGraph g = ThreeTriangles();
  SeusConfig config;
  config.min_support = 0;
  EXPECT_FALSE(SeusDiscover(g, config).ok());
}

// -------------------------------------------------------- Complete miner

TEST(CompleteMinerTest, ExactPatternCountOnTriangles) {
  LabeledGraph g = ThreeTriangles();
  CompleteMinerConfig config;
  config.min_support = 3;
  Result<CompleteMineResult> result = MineComplete(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->aborted);
  // Connected patterns on labels {0,1,2} with >= 1 edge inside a triangle:
  // 3 single edges + 3 two-edge paths + 1 triangle = 7.
  EXPECT_EQ(result->patterns.size(), 7u);
  for (const CompletePattern& p : result->patterns) {
    EXPECT_EQ(p.support, 3);
  }
}

TEST(CompleteMinerTest, SupportThresholdPrunes) {
  LabeledGraph g = ThreeTriangles();
  CompleteMinerConfig config;
  config.min_support = 4;
  Result<CompleteMineResult> result = MineComplete(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->patterns.empty());
}

TEST(CompleteMinerTest, MaxPatternEdgesTruncatesDepth) {
  LabeledGraph g = ThreeTriangles();
  CompleteMinerConfig config;
  config.min_support = 3;
  config.max_pattern_edges = 1;
  Result<CompleteMineResult> result = MineComplete(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->patterns.size(), 3u);  // just the edges
}

TEST(CompleteMinerTest, BudgetAbortReported) {
  Rng rng(5);
  LabeledGraph g =
      std::move(GenerateErdosRenyi(300, 4.0, 3, &rng).Build()).value();
  CompleteMinerConfig config;
  config.min_support = 2;
  config.max_patterns = 50;
  Result<CompleteMineResult> result = MineComplete(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->aborted);
  EXPECT_GE(static_cast<int64_t>(result->patterns.size()), 50);
}

TEST(CompleteMinerTest, ContainsSpiderMineTopPattern) {
  // On a graph small enough for completeness, the complete set must
  // contain every pattern SpiderMine can return (sanity cross-check used
  // by the integration suite at larger scale).
  LabeledGraph g = ThreeTriangles();
  CompleteMinerConfig config;
  config.min_support = 3;
  Result<CompleteMineResult> result = MineComplete(g, config);
  ASSERT_TRUE(result.ok());
  int32_t max_edges = 0;
  for (const CompletePattern& p : result->patterns) {
    max_edges = std::max(max_edges, p.pattern.NumEdges());
  }
  EXPECT_EQ(max_edges, 3);
}

/// A one-label 21-vertex path with a pendant leaf at spine position
/// \p pendant_at: 22 vertices, three (label, degree) signatures.
Pattern Caterpillar(int32_t pendant_at) {
  Pattern p;
  for (int32_t i = 0; i < 21; ++i) p.AddVertex(0);
  for (int32_t i = 0; i + 1 < 21; ++i) p.AddEdge(i, i + 1);
  const VertexId leaf = p.AddVertex(0);
  p.AddEdge(pendant_at, leaf);
  return p;
}

TEST(CompleteMinerTest, KeepsLargeFewSignaturePatternsApart) {
  // Two copies each of the caterpillars with the leaf at positions 7 and
  // 8. Both are frequent; a key that is only a WL fingerprint for large
  // patterns with few (label, degree) signatures merges them (and other
  // classes), so the miner must decide classes exactly.
  const Pattern at7 = Caterpillar(7);
  const Pattern at8 = Caterpillar(8);
  ASSERT_FALSE(ArePatternsIsomorphic(at7, at8));
  GraphBuilder b;
  for (const Pattern* p : {&at7, &at7, &at8, &at8}) {
    const VertexId base = b.AddVertex(0);
    for (VertexId v = 1; v < p->NumVertices(); ++v) b.AddVertex(0);
    for (const auto& [u, v] : p->Edges()) b.AddEdge(base + u, base + v);
  }
  LabeledGraph g = std::move(b.Build()).value();
  CompleteMinerConfig config;
  config.min_support = 2;
  Result<CompleteMineResult> result = MineComplete(g, config);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->aborted);
  EXPECT_EQ(result->patterns.size(), 95u);
  int found_at7 = 0;
  int found_at8 = 0;
  for (const CompletePattern& p : result->patterns) {
    found_at7 += ArePatternsIsomorphic(p.pattern, at7) ? 1 : 0;
    found_at8 += ArePatternsIsomorphic(p.pattern, at8) ? 1 : 0;
  }
  EXPECT_EQ(found_at7, 1);
  EXPECT_EQ(found_at8, 1);
  for (size_t i = 0; i < result->patterns.size(); ++i) {
    for (size_t j = i + 1; j < result->patterns.size(); ++j) {
      EXPECT_FALSE(ArePatternsIsomorphic(result->patterns[i].pattern,
                                         result->patterns[j].pattern))
          << i << " and " << j;
    }
  }
}

TEST(CompleteMinerTest, InvalidConfigRejected) {
  LabeledGraph g = ThreeTriangles();
  CompleteMinerConfig config;
  config.min_support = 0;
  EXPECT_FALSE(MineComplete(g, config).ok());
}

// ---------------------------------------------------------------- ORIGAMI

TEST(OrigamiTest, SamplesMaximalFrequentPatterns) {
  TransactionDatasetConfig gen_config;
  gen_config.num_graphs = 5;
  gen_config.vertices_per_graph = 50;
  gen_config.avg_degree = 2.0;
  gen_config.num_labels = 8;
  gen_config.num_large = 1;
  gen_config.large_vertices = 8;
  gen_config.large_txn_support = 4;
  gen_config.seed = 21;
  Result<TransactionDataset> data = GenerateTransactionDataset(gen_config);
  ASSERT_TRUE(data.ok());
  Result<TransactionGraph> txn = BuildTransactionGraph(data->database);
  ASSERT_TRUE(txn.ok());
  OrigamiConfig config;
  config.min_support = 3;
  config.num_samples = 100;
  Result<OrigamiResult> result = OrigamiMine(*txn, config);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->sampled.empty());
  EXPECT_FALSE(result->representatives.empty());
  for (const OrigamiPattern& p : result->sampled) {
    EXPECT_GE(p.support, 3);
  }
}

TEST(OrigamiTest, RepresentativesAreOrthogonal) {
  TransactionDatasetConfig gen_config;
  gen_config.num_graphs = 5;
  gen_config.vertices_per_graph = 50;
  gen_config.avg_degree = 2.5;
  gen_config.num_labels = 6;
  gen_config.num_large = 2;
  gen_config.large_vertices = 6;
  gen_config.large_txn_support = 3;
  gen_config.seed = 22;
  Result<TransactionDataset> data = GenerateTransactionDataset(gen_config);
  ASSERT_TRUE(data.ok());
  Result<TransactionGraph> txn = BuildTransactionGraph(data->database);
  ASSERT_TRUE(txn.ok());
  OrigamiConfig config;
  config.min_support = 2;
  config.num_samples = 60;
  config.max_representatives = 5;
  Result<OrigamiResult> result = OrigamiMine(*txn, config);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->representatives.size(), 5u);
  EXPECT_LE(result->representatives.size(), result->sampled.size());
}

TEST(OrigamiTest, DeterministicForSeed) {
  TransactionDatasetConfig gen_config;
  gen_config.num_graphs = 4;
  gen_config.vertices_per_graph = 40;
  gen_config.num_labels = 6;
  gen_config.num_large = 1;
  gen_config.large_vertices = 6;
  gen_config.large_txn_support = 3;
  gen_config.seed = 23;
  Result<TransactionDataset> data = GenerateTransactionDataset(gen_config);
  ASSERT_TRUE(data.ok());
  Result<TransactionGraph> txn = BuildTransactionGraph(data->database);
  ASSERT_TRUE(txn.ok());
  OrigamiConfig config;
  config.min_support = 2;
  config.num_samples = 30;
  Result<OrigamiResult> a = OrigamiMine(*txn, config);
  Result<OrigamiResult> b = OrigamiMine(*txn, config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->sampled.size(), b->sampled.size());
  EXPECT_EQ(a->representatives.size(), b->representatives.size());
}

TEST(OrigamiTest, InvalidConfigRejected) {
  TransactionGraph txn;
  OrigamiConfig config;
  config.min_support = 0;
  EXPECT_FALSE(OrigamiMine(txn, config).ok());
}

// ------------------------------------------------------- Edge labels

/// Six disjoint edges between a 0- and a 1-labeled vertex: three with edge
/// label 1, three with edge label 2.
LabeledGraph SixLabeledEdges() {
  GraphBuilder b;
  for (int copy = 0; copy < 6; ++copy) {
    const VertexId u = b.AddVertex(0);
    const VertexId v = b.AddVertex(1);
    b.AddEdge(u, v, copy < 3 ? 1 : 2);
  }
  return std::move(b.Build()).value();
}

/// "a-b(l)" (vertex labels a <= b, edge label l) -> support, for every
/// single-edge pattern of a result; patterns with more edges go under
/// "larger" so that a miner inventing one fails the comparison.
template <typename Patterns, typename SupportOf>
std::map<std::string, int64_t> EdgePatterns(const Patterns& patterns,
                                            SupportOf support_of) {
  std::map<std::string, int64_t> out;
  for (const auto& p : patterns) {
    if (p.pattern.NumEdges() == 0) continue;
    if (p.pattern.NumEdges() > 1) {
      ++out["larger"];
      continue;
    }
    const Pattern::LabeledEdge edge = p.pattern.LabeledEdges()[0];
    const LabelId a = p.pattern.Label(edge.u);
    const LabelId b = p.pattern.Label(edge.v);
    out[StrCat(std::min(a, b), "-", std::max(a, b), "(", edge.label, ")")] =
        support_of(p);
  }
  return out;
}

TEST(EdgeLabelTest, EveryMinerKeepsEdgeLabelsApart) {
  const LabeledGraph g = SixLabeledEdges();
  const std::map<std::string, int64_t> expected = {{"0-1(1)", 3},
                                                   {"0-1(2)", 3}};

  CompleteMinerConfig complete_config;
  complete_config.min_support = 2;
  Result<CompleteMineResult> complete = MineComplete(g, complete_config);
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(EdgePatterns(complete->patterns,
                         [](const CompletePattern& p) { return p.support; }),
            expected);

  Result<SubdueResult> subdue = SubdueDiscover(g, {});
  ASSERT_TRUE(subdue.ok());
  EXPECT_EQ(EdgePatterns(subdue->patterns,
                         [](const SubduePattern& p) { return p.instances; }),
            expected);

  GrewConfig grew_config;
  grew_config.min_support = 2;
  Result<GrewResult> grew = GrewDiscover(g, grew_config);
  ASSERT_TRUE(grew.ok());
  EXPECT_EQ(EdgePatterns(grew->patterns,
                         [](const GrewPattern& p) { return p.support; }),
            expected);

  SeusConfig seus_config;
  seus_config.min_support = 2;
  Result<SeusResult> seus = SeusDiscover(g, seus_config);
  ASSERT_TRUE(seus.ok());
  EXPECT_EQ(EdgePatterns(seus->patterns,
                         [](const SeusPattern& p) { return p.support; }),
            expected);
}

}  // namespace
}  // namespace spidermine
