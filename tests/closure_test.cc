#include "spidermine/closure.h"

#include <gtest/gtest.h>

#include "graph/graph_builder.h"
#include "pattern/vf2.h"
#include "spidermine/session.h"

namespace spidermine {
namespace {

// Two vertex-disjoint labeled triangles (labels 0-1-2).
LabeledGraph TwoTriangles() {
  GraphBuilder builder;
  for (int copy = 0; copy < 2; ++copy) {
    VertexId a = builder.AddVertex(0);
    VertexId b = builder.AddVertex(1);
    VertexId c = builder.AddVertex(2);
    builder.AddEdge(a, b);
    builder.AddEdge(b, c);
    builder.AddEdge(a, c);
  }
  return std::move(builder.Build()).value();
}

// The open path 0-1-2 (missing the 0-2 closing edge).
Pattern OpenTriangle() {
  Pattern p(0);
  VertexId b = p.AddVertex(1);
  VertexId c = p.AddVertex(2);
  p.AddEdge(0, b);
  p.AddEdge(b, c);
  return p;
}

TEST(ClosureTest, ClosesTriangleEdge) {
  LabeledGraph g = TwoTriangles();
  Pattern p = OpenTriangle();
  OccurrenceList embeddings = FindEmbeddings(p, g);
  ASSERT_GE(embeddings.size(), 2u);
  int64_t support = 0;
  int32_t added =
      CloseInternalEdges(g, &p, &embeddings, SupportMeasureKind::kGreedyMisVertex,
                         /*min_support=*/2, &support);
  EXPECT_EQ(added, 1);
  EXPECT_EQ(p.NumEdges(), 3);
  EXPECT_TRUE(p.HasEdge(0, 2));
  EXPECT_EQ(support, 2);
  // Surviving embeddings all realize the new edge.
  for (OccurrenceList::Row e : embeddings) {
    EXPECT_TRUE(g.HasEdge(e[0], e[2]));
  }
}

TEST(ClosureTest, RespectsMinSupport) {
  // One triangle and one open path: the closing edge exists in only one
  // embedding, below sigma = 2.
  GraphBuilder builder;
  VertexId a = builder.AddVertex(0);
  VertexId b = builder.AddVertex(1);
  VertexId c = builder.AddVertex(2);
  builder.AddEdge(a, b);
  builder.AddEdge(b, c);
  builder.AddEdge(a, c);
  VertexId d = builder.AddVertex(0);
  VertexId e = builder.AddVertex(1);
  VertexId f = builder.AddVertex(2);
  builder.AddEdge(d, e);
  builder.AddEdge(e, f);
  LabeledGraph g = std::move(builder.Build()).value();

  Pattern p = OpenTriangle();
  OccurrenceList embeddings = FindEmbeddings(p, g);
  int32_t added =
      CloseInternalEdges(g, &p, &embeddings, SupportMeasureKind::kGreedyMisVertex,
                         /*min_support=*/2, nullptr);
  EXPECT_EQ(added, 0);
  EXPECT_EQ(p.NumEdges(), 2);

  // With sigma = 1 the edge is addable; embeddings narrow to the triangle.
  added =
      CloseInternalEdges(g, &p, &embeddings, SupportMeasureKind::kGreedyMisVertex,
                         /*min_support=*/1, nullptr);
  EXPECT_EQ(added, 1);
  ASSERT_EQ(embeddings.size(), 1u);
}

TEST(ClosureTest, AlreadyClosedPatternUnchanged) {
  LabeledGraph g = TwoTriangles();
  Pattern p = OpenTriangle();
  p.AddEdge(0, 2);  // full triangle
  OccurrenceList embeddings = FindEmbeddings(p, g);
  const size_t embeddings_before = embeddings.size();
  int32_t added =
      CloseInternalEdges(g, &p, &embeddings, SupportMeasureKind::kGreedyMisVertex,
                         /*min_support=*/2, nullptr);
  EXPECT_EQ(added, 0);
  EXPECT_EQ(p.NumEdges(), 3);
  EXPECT_EQ(embeddings.size(), embeddings_before);
}

TEST(ClosureTest, AddsMultipleEdgesGreedily) {
  // Two disjoint copies of K4; the pattern is its spanning star, missing
  // all three leaf-leaf edges.
  GraphBuilder builder;
  for (int copy = 0; copy < 2; ++copy) {
    VertexId v0 = builder.AddVertex(0);
    VertexId v1 = builder.AddVertex(1);
    VertexId v2 = builder.AddVertex(2);
    VertexId v3 = builder.AddVertex(3);
    for (VertexId x : {v1, v2, v3}) builder.AddEdge(v0, x);
    builder.AddEdge(v1, v2);
    builder.AddEdge(v1, v3);
    builder.AddEdge(v2, v3);
  }
  LabeledGraph g = std::move(builder.Build()).value();

  Pattern star(0);
  VertexId s1 = star.AddVertex(1);
  VertexId s2 = star.AddVertex(2);
  VertexId s3 = star.AddVertex(3);
  star.AddEdge(0, s1);
  star.AddEdge(0, s2);
  star.AddEdge(0, s3);

  OccurrenceList embeddings = FindEmbeddings(star, g);
  int64_t support = 0;
  int32_t added = CloseInternalEdges(g, &star, &embeddings,
                                     SupportMeasureKind::kGreedyMisVertex,
                                     /*min_support=*/2, &support);
  EXPECT_EQ(added, 3);
  EXPECT_EQ(star.NumEdges(), 6);  // K4
  EXPECT_EQ(support, 2);
}

TEST(ClosureTest, EmptyEmbeddingListIsNoop) {
  LabeledGraph g = TwoTriangles();
  Pattern p = OpenTriangle();
  OccurrenceList embeddings(p.NumVertices());
  EXPECT_EQ(CloseInternalEdges(g, &p, &embeddings,
                               SupportMeasureKind::kGreedyMisVertex, 2),
            0);
}

// End-to-end: with closure enabled (default) the miner recovers the full
// triangle from TwoTriangles; with closure disabled the star Stage I caps
// the result at the open path.
TEST(ClosureTest, MinerRecoversTriangleOnlyWithClosure) {
  LabeledGraph g = TwoTriangles();
  SessionConfig config;
  TopKQuery query;
  config.min_support = 2;
  query.k = 3;
  query.dmax = 2;
  query.vmin = 3;
  query.rng_seed = 1;
  query.restarts = 4;

  query.close_internal_edges = false;
  Result<QueryResult> open = MineOnce(&g, config, query);
  ASSERT_TRUE(open.ok());
  ASSERT_FALSE(open->patterns.empty());
  EXPECT_LT(open->patterns.front().NumEdges(), 3);

  query.close_internal_edges = true;
  Result<QueryResult> closed = MineOnce(&g, config, query);
  ASSERT_TRUE(closed.ok());
  ASSERT_FALSE(closed->patterns.empty());
  EXPECT_EQ(closed->patterns.front().NumEdges(), 3);
  EXPECT_EQ(closed->patterns.front().NumVertices(), 3);
  EXPECT_EQ(closed->patterns.front().support, 2);
  EXPECT_GT(closed->stats.closure_edges_added, 0);
}

}  // namespace
}  // namespace spidermine
