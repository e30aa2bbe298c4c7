#include <gtest/gtest.h>

#include "baselines/ball_miner.h"
#include "graph/binary_io.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "pattern/dfs_code.h"
#include "pattern/vf2.h"
#include "spider/star_miner.h"
#include "spidermine/session.h"

#include "spidermine/oracle.h"
#include "spider_test_util.h"

/// \file edge_label_test.cc
/// The paper's Sec. 3 extension: "Our method can also be applied to graphs
/// with edge labels." These tests cover the edge-labeled data model, the
/// label-aware matching/canonical layers, and end-to-end SpiderMine runs on
/// edge-labeled networks. Baselines are vertex-label-only by design (the
/// paper's evaluation graphs carry no edge labels); DESIGN.md documents it.

namespace spidermine {
namespace {

TEST(EdgeLabelTest, GraphStoresAndReportsEdgeLabels) {
  GraphBuilder builder;
  builder.AddVertices(3, 0);
  builder.AddEdge(0, 1, 5);
  builder.AddEdge(1, 2);  // unlabeled
  LabeledGraph g = std::move(builder.Build()).value();
  EXPECT_TRUE(g.HasEdgeLabels());
  EXPECT_EQ(g.EdgeLabel(0, 1), 5);
  EXPECT_EQ(g.EdgeLabel(1, 0), 5);
  EXPECT_EQ(g.EdgeLabel(1, 2), 0);
  EXPECT_EQ(g.EdgeLabel(0, 2), -1);  // absent edge
}

TEST(EdgeLabelTest, UnlabeledGraphReportsNoEdgeLabels) {
  GraphBuilder builder;
  builder.AddVertices(2, 0);
  builder.AddEdge(0, 1);
  LabeledGraph g = std::move(builder.Build()).value();
  EXPECT_FALSE(g.HasEdgeLabels());
  EXPECT_EQ(g.EdgeLabel(0, 1), 0);
}

TEST(EdgeLabelTest, PatternStoresEdgeLabels) {
  Pattern p(0);
  VertexId b = p.AddVertex(1);
  VertexId c = p.AddVertex(2);
  ASSERT_TRUE(p.AddEdge(0, b, 7));
  ASSERT_TRUE(p.AddEdge(b, c));
  EXPECT_TRUE(p.HasEdgeLabels());
  EXPECT_EQ(p.EdgeLabel(0, b), 7);
  EXPECT_EQ(p.EdgeLabel(b, 0), 7);
  EXPECT_EQ(p.EdgeLabel(b, c), 0);
  auto edges = p.LabeledEdges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].label, 7);
  EXPECT_EQ(edges[1].label, 0);
}

TEST(EdgeLabelTest, InducedSubgraphKeepsEdgeLabels) {
  Pattern p(0);
  VertexId b = p.AddVertex(1);
  VertexId c = p.AddVertex(2);
  p.AddEdge(0, b, 3);
  p.AddEdge(b, c, 4);
  std::vector<VertexId> keep{0, b};
  Pattern sub = p.InducedSubgraph(keep);
  EXPECT_EQ(sub.EdgeLabel(0, 1), 3);
}

TEST(EdgeLabelTest, Vf2DistinguishesEdgeLabels) {
  // Graph: two edges with different labels between same-labeled vertices.
  GraphBuilder builder;
  builder.AddVertex(0);
  builder.AddVertex(1);
  builder.AddVertex(1);
  builder.AddEdge(0, 1, 10);
  builder.AddEdge(0, 2, 20);
  LabeledGraph g = std::move(builder.Build()).value();

  Pattern want10(0);
  want10.AddVertex(1);
  want10.AddEdge(0, 1, 10);
  Pattern want20(0);
  want20.AddVertex(1);
  want20.AddEdge(0, 1, 20);
  Pattern want30(0);
  want30.AddVertex(1);
  want30.AddEdge(0, 1, 30);

  EXPECT_EQ(FindEmbeddings(want10, g).size(), 1u);
  EXPECT_EQ(FindEmbeddings(want20, g).size(), 1u);
  EXPECT_TRUE(FindEmbeddings(want30, g).empty());
  // An unlabeled pattern edge (label 0) does not match labeled graph edges.
  Pattern want0(0);
  want0.AddVertex(1);
  want0.AddEdge(0, 1);
  EXPECT_TRUE(FindEmbeddings(want0, g).empty());
}

TEST(EdgeLabelTest, IsomorphismRespectsEdgeLabels) {
  Pattern a(0);
  a.AddVertex(1);
  a.AddEdge(0, 1, 3);
  Pattern b(1);
  b.AddVertex(0);
  b.AddEdge(0, 1, 3);
  Pattern c(0);
  c.AddVertex(1);
  c.AddEdge(0, 1, 4);
  Pattern d(0);
  d.AddVertex(1);
  d.AddEdge(0, 1);

  EXPECT_TRUE(ArePatternsIsomorphic(a, b));
  EXPECT_FALSE(ArePatternsIsomorphic(a, c));
  EXPECT_FALSE(ArePatternsIsomorphic(a, d));
}

TEST(EdgeLabelTest, DfsCodeSeparatesEdgeLabels) {
  Pattern a(0);
  a.AddVertex(0);
  a.AddEdge(0, 1, 1);
  Pattern b(0);
  b.AddVertex(0);
  b.AddEdge(0, 1, 2);
  EXPECT_NE(DfsCodeToString(MinimumDfsCode(a)),
            DfsCodeToString(MinimumDfsCode(b)));

  // Permutation invariance with edge labels: triangle with distinct edge
  // labels, built in two vertex orders.
  Pattern t1(0);
  {
    VertexId x = t1.AddVertex(0);
    VertexId y = t1.AddVertex(0);
    t1.AddEdge(0, x, 1);
    t1.AddEdge(x, y, 2);
    t1.AddEdge(0, y, 3);
  }
  Pattern t2(0);
  {
    VertexId x = t2.AddVertex(0);
    VertexId y = t2.AddVertex(0);
    t2.AddEdge(0, x, 3);   // relabeled rotation of t1
    t2.AddEdge(x, y, 2);
    t2.AddEdge(0, y, 1);
  }
  EXPECT_EQ(DfsCodeToString(MinimumDfsCode(t1)),
            DfsCodeToString(MinimumDfsCode(t2)));
  EXPECT_TRUE(ArePatternsIsomorphic(t1, t2));
}

TEST(EdgeLabelTest, DfsCodeRoundTripKeepsEdgeLabels) {
  Pattern p(0);
  VertexId b = p.AddVertex(1);
  VertexId c = p.AddVertex(2);
  p.AddEdge(0, b, 9);
  p.AddEdge(b, c, 8);
  p.AddEdge(0, c, 7);
  DfsCode code = MinimumDfsCode(p);
  Pattern back = PatternFromDfsCode(code);
  EXPECT_TRUE(ArePatternsIsomorphic(p, back));
  EXPECT_TRUE(back.HasEdgeLabels());
}

TEST(EdgeLabelTest, TextAndBinaryIoRoundTripEdgeLabels) {
  GraphBuilder builder;
  builder.AddVertices(4, 1);
  builder.AddEdge(0, 1, 2);
  builder.AddEdge(1, 2, 3);
  builder.AddEdge(2, 3);
  LabeledGraph g = std::move(builder.Build()).value();

  Result<LabeledGraph> via_text = ParseGraphText(GraphToText(g));
  ASSERT_TRUE(via_text.ok()) << via_text.status();
  EXPECT_EQ(via_text->EdgeLabel(0, 1), 2);
  EXPECT_EQ(via_text->EdgeLabel(1, 2), 3);
  EXPECT_EQ(via_text->EdgeLabel(2, 3), 0);

  Result<LabeledGraph> via_binary = GraphFromBinary(GraphToBinary(g));
  ASSERT_TRUE(via_binary.ok()) << via_binary.status();
  EXPECT_EQ(via_binary->EdgeLabel(0, 1), 2);
  EXPECT_EQ(via_binary->EdgeLabel(1, 2), 3);
  EXPECT_EQ(via_binary->EdgeLabel(2, 3), 0);
}

TEST(EdgeLabelTest, StarMinerSeparatesLeavesByEdgeLabel) {
  // Three hubs of label 0; each has one neighbor of label 1 via edge label
  // 1 and one via edge label 2. The edge-labeled stars must be distinct
  // spiders with support 3, and the combined 2-leaf star must exist too.
  GraphBuilder builder;
  for (int i = 0; i < 3; ++i) {
    VertexId hub = builder.AddVertex(0);
    VertexId l1 = builder.AddVertex(1);
    VertexId l2 = builder.AddVertex(1);
    builder.AddEdge(hub, l1, 1);
    builder.AddEdge(hub, l2, 2);
  }
  LabeledGraph g = std::move(builder.Build()).value();

  StarMinerConfig config;
  config.min_support = 3;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());

  int single_leaf_stars_at_hub = 0;
  bool combined = false;
  for (const Spider& s : result->Spiders()) {
    if (s.pattern.Label(0) != 0) continue;
    if (s.pattern.NumVertices() == 2) ++single_leaf_stars_at_hub;
    if (s.pattern.NumVertices() == 3) {
      auto keys = s.LeafKeys();
      combined = keys.size() == 2 && keys[0].first == 1 &&
                 keys[1].first == 2;
    }
  }
  // Edge labels 1 and 2 each give a distinct single-leaf star.
  EXPECT_EQ(single_leaf_stars_at_hub, 2);
  EXPECT_TRUE(combined);
}

TEST(EdgeLabelTest, BuilderRejectsNegativeEdgeLabel) {
  GraphBuilder builder;
  builder.AddVertices(2, 0);
  builder.AddEdge(0, 1, -3);
  Result<LabeledGraph> result = builder.Build();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EdgeLabelTest, DuplicateEdgeKeepsFirstLabel) {
  GraphBuilder builder;
  builder.AddVertices(2, 0);
  builder.AddEdge(0, 1, 5);
  builder.AddEdge(1, 0, 7);  // duplicate (reversed); first label wins
  LabeledGraph g = std::move(builder.Build()).value();
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_EQ(g.EdgeLabel(0, 1), 5);
}

TEST(EdgeLabelTest, TextFormatOmitsLabelColumnWhenUnlabeled) {
  GraphBuilder builder;
  builder.AddVertices(2, 0);
  builder.AddEdge(0, 1);
  LabeledGraph g = std::move(builder.Build()).value();
  std::string text = GraphToText(g);
  EXPECT_NE(text.find("e 0 1\n"), std::string::npos);

  GraphBuilder labeled;
  labeled.AddVertices(2, 0);
  labeled.AddEdge(0, 1, 4);
  LabeledGraph g2 = std::move(labeled.Build()).value();
  EXPECT_NE(GraphToText(g2).find("e 0 1 4\n"), std::string::npos);
}

TEST(EdgeLabelTest, OracleRespectsEdgeLabels) {
  // Two triangle kinds with identical VERTEX labels: two copies wired with
  // edge labels (1,2,3) and two wired with (9,9,9). At sigma = 2 each kind
  // is frequent on its own; a mix never is. The oracle's engine (complete
  // miner) must keep the kinds apart.
  GraphBuilder builder;
  for (int copy = 0; copy < 2; ++copy) {
    VertexId a = builder.AddVertex(0);
    VertexId b = builder.AddVertex(1);
    VertexId c = builder.AddVertex(2);
    builder.AddEdge(a, b, 1);
    builder.AddEdge(b, c, 2);
    builder.AddEdge(a, c, 3);
  }
  for (int copy = 0; copy < 2; ++copy) {
    VertexId a = builder.AddVertex(0);
    VertexId b = builder.AddVertex(1);
    VertexId c = builder.AddVertex(2);
    builder.AddEdge(a, b, 9);
    builder.AddEdge(b, c, 9);
    builder.AddEdge(a, c, 9);
  }
  LabeledGraph g = std::move(builder.Build()).value();

  OracleConfig config;
  config.min_support = 2;
  config.k = 4;
  config.dmax = 2;
  Result<OracleResult> result = ExactTopKLargest(g, config);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->exact);
  ASSERT_GE(result->top_k.size(), 2u);
  // Both full triangles (one per edge-label kind) rank at the top with
  // support exactly 2; a label-blind engine would report one 3-edge
  // triangle with support 4 instead.
  EXPECT_EQ(result->top_k[0].pattern.NumEdges(), 3);
  EXPECT_EQ(result->top_k[1].pattern.NumEdges(), 3);
  EXPECT_EQ(result->top_k[0].support, 2);
  EXPECT_EQ(result->top_k[1].support, 2);
  EXPECT_FALSE(
      ArePatternsIsomorphic(result->top_k[0].pattern,
                            result->top_k[1].pattern));
}

TEST(EdgeLabelTest, BallMinerSeparatesEdgeLabeledSpiders) {
  // Three copies of each of two 2-paths u-m-w that differ only in their
  // edge labels; radius-2 spiders headed at the endpoints must separate.
  GraphBuilder builder;
  for (int copy = 0; copy < 3; ++copy) {
    VertexId u = builder.AddVertex(0);
    VertexId m = builder.AddVertex(1);
    VertexId w = builder.AddVertex(2);
    builder.AddEdge(u, m, 1);
    builder.AddEdge(m, w, 1);
  }
  for (int copy = 0; copy < 3; ++copy) {
    VertexId u = builder.AddVertex(0);
    VertexId m = builder.AddVertex(1);
    VertexId w = builder.AddVertex(2);
    builder.AddEdge(u, m, 2);
    builder.AddEdge(m, w, 2);
  }
  LabeledGraph g = std::move(builder.Build()).value();

  BallMinerConfig config;
  config.min_support = 3;
  config.radius = 2;
  Result<BallMineResult> result = MineBallSpiders(g, config);
  ASSERT_TRUE(result.ok());
  // Full 2-path spiders headed at label-0 vertices: one per edge-label
  // kind, each with 3 anchors. A label-blind miner would merge them into
  // one spider with 6 anchors.
  int full_paths_at_head0 = 0;
  for (const Spider& s : result->spiders) {
    if (s.pattern.NumVertices() == 3 && s.pattern.Label(0) == 0) {
      ++full_paths_at_head0;
      EXPECT_EQ(s.support, 3);
      EXPECT_TRUE(s.pattern.HasEdgeLabels());
    }
  }
  EXPECT_EQ(full_paths_at_head0, 2);
}

TEST(EdgeLabelTest, SpiderMineMinesEdgeLabeledNetworkEndToEnd) {
  // Plant 3 copies of an edge-labeled triangle-with-tail; background is a
  // few same-vertex-label vertices wired with a DIFFERENT edge label, so
  // recovery must distinguish edge labels to report support 3.
  GraphBuilder builder;
  for (int i = 0; i < 3; ++i) {
    VertexId a = builder.AddVertex(0);
    VertexId b = builder.AddVertex(1);
    VertexId c = builder.AddVertex(2);
    VertexId d = builder.AddVertex(3);
    builder.AddEdge(a, b, 1);
    builder.AddEdge(b, c, 2);
    builder.AddEdge(a, c, 3);
    builder.AddEdge(c, d, 1);
  }
  // Decoys: same vertex labels, different edge labels.
  for (int i = 0; i < 3; ++i) {
    VertexId a = builder.AddVertex(0);
    VertexId b = builder.AddVertex(1);
    VertexId c = builder.AddVertex(2);
    builder.AddEdge(a, b, 9);
    builder.AddEdge(b, c, 9);
    builder.AddEdge(a, c, 9);
  }
  LabeledGraph g = std::move(builder.Build()).value();

  SessionConfig config;
  TopKQuery query;
  config.min_support = 3;
  query.k = 3;
  query.dmax = 4;
  query.vmin = 4;
  query.rng_seed = 2;
  query.restarts = 4;
  Result<QueryResult> result = MineOnce(&g, config, query);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_FALSE(result->patterns.empty());
  const MinedPattern& top = result->patterns.front();
  EXPECT_EQ(top.NumVertices(), 4);
  EXPECT_EQ(top.NumEdges(), 4);
  EXPECT_EQ(top.support, 3);
  EXPECT_TRUE(top.pattern.HasEdgeLabels());

  // The planted labeled structure, for an exact isomorphism check.
  Pattern planted(0);
  VertexId b = planted.AddVertex(1);
  VertexId c = planted.AddVertex(2);
  VertexId d = planted.AddVertex(3);
  planted.AddEdge(0, b, 1);
  planted.AddEdge(b, c, 2);
  planted.AddEdge(0, c, 3);
  planted.AddEdge(c, d, 1);
  EXPECT_TRUE(ArePatternsIsomorphic(top.pattern, planted));
}

}  // namespace
}  // namespace spidermine
