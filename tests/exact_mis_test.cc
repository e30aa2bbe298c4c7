#include "support/exact_mis.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "occurrence_test_util.h"
#include "pattern/vf2.h"

namespace spidermine {
namespace {

Pattern EdgePattern() {
  Pattern p;
  p.AddVertex(0);
  p.AddVertex(0);
  p.AddEdge(0, 1);
  return p;
}

TEST(ExactMisTest, EmptyEmbeddingsIsZero) {
  Result<ExactMisResult> r = ComputeExactMisSupport(
      EdgePattern(), {}, MisConflict::kSharedVertex);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->support, 0);
}

TEST(ExactMisTest, DisjointEmbeddingsAllCount) {
  OccurrenceList embeddings = ListOf({{0, 1}, {2, 3}, {4, 5}});
  Result<ExactMisResult> r = ComputeExactMisSupport(
      EdgePattern(), embeddings, MisConflict::kSharedVertex);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->support, 3);
  EXPECT_FALSE(r->truncated);
}

TEST(ExactMisTest, ChainBeatsGreedyWorstCase) {
  // Star conflicts: e0 overlaps everything; exact MIS picks the others.
  OccurrenceList embeddings = ListOf({{0, 1}, {1, 2}, {0, 3}, {5, 6}});
  Result<ExactMisResult> r = ComputeExactMisSupport(
      EdgePattern(), embeddings, MisConflict::kSharedVertex);
  ASSERT_TRUE(r.ok());
  // {1,2}, {0,3}, {5,6} are pairwise disjoint.
  EXPECT_EQ(r->support, 3);
}

TEST(ExactMisTest, EdgeConflictSemantics) {
  // Embeddings sharing a vertex but not an edge are compatible.
  OccurrenceList embeddings = ListOf({{0, 1}, {0, 2}, {0, 3}});
  Result<ExactMisResult> vertex = ComputeExactMisSupport(
      EdgePattern(), embeddings, MisConflict::kSharedVertex);
  Result<ExactMisResult> edge = ComputeExactMisSupport(
      EdgePattern(), embeddings, MisConflict::kSharedEdge);
  ASSERT_TRUE(vertex.ok());
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(vertex->support, 1);
  EXPECT_EQ(edge->support, 3);
}

TEST(ExactMisTest, EdgeConflictRejectsEdgelessPattern) {
  Pattern p(0);
  EXPECT_FALSE(
      ComputeExactMisSupport(p, ListOf({{0}}), MisConflict::kSharedEdge).ok());
}

TEST(ExactMisTest, BudgetTruncationReported) {
  // Many mutually-compatible embeddings with a tiny node budget.
  Rows embeddings;
  for (int i = 0; i < 40; ++i) {
    embeddings.push_back({2 * i, 2 * i + 1});
  }
  Result<ExactMisResult> r =
      ComputeExactMisSupport(EdgePattern(), ListOf(embeddings),
                             MisConflict::kSharedVertex, /*max_nodes=*/5);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->truncated);
  EXPECT_GT(r->support, 0);  // still a valid lower bound
}

TEST(ExactMisTest, ExactAtLeastGreedyOnRandomInstances) {
  // The validation the module exists for: exact MIS >= greedy MIS, and
  // both within [1, count] when embeddings exist.
  Rng rng(12);
  for (int trial = 0; trial < 10; ++trial) {
    LabeledGraph g = std::move(
        GenerateErdosRenyi(60, 3.0, 3, &rng).Build())
            .value();
    Pattern p = RandomConnectedPattern(3, 0.0, 3, &rng);
    Vf2Options options;
    options.max_embeddings = 60;
    OccurrenceList embeddings = FindEmbeddings(p, g, options);
    DedupEmbeddingsByImage(&embeddings);
    if (embeddings.empty()) continue;
    int64_t greedy = ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p,
                                    embeddings);
    Result<ExactMisResult> exact = ComputeExactMisSupport(
        p, embeddings, MisConflict::kSharedVertex, 200000);
    ASSERT_TRUE(exact.ok());
    if (exact->truncated) continue;
    EXPECT_GE(exact->support, greedy);
    EXPECT_LE(exact->support, static_cast<int64_t>(embeddings.size()));
  }
}

TEST(ExactMisTest, GreedyIsHalfDecentOnRandomInstances) {
  // Greedy-by-order is not a constant-factor approximation in theory, but
  // on embedding conflict graphs it should stay within 2x here.
  Rng rng(21);
  LabeledGraph g = std::move(
      GenerateErdosRenyi(80, 4.0, 2, &rng).Build())
          .value();
  Pattern p = RandomConnectedPattern(2, 0.0, 2, &rng);
  Vf2Options options;
  options.max_embeddings = 80;
  OccurrenceList embeddings = FindEmbeddings(p, g, options);
  DedupEmbeddingsByImage(&embeddings);
  if (embeddings.empty()) GTEST_SKIP();
  int64_t greedy =
      ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p, embeddings);
  Result<ExactMisResult> exact = ComputeExactMisSupport(
      p, embeddings, MisConflict::kSharedVertex, 500000);
  ASSERT_TRUE(exact.ok());
  if (!exact->truncated) {
    EXPECT_GE(greedy * 2, exact->support);
  }
}

}  // namespace
}  // namespace spidermine
