#include "pattern/vf2.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "occurrence_test_util.h"

namespace spidermine {
namespace {

LabeledGraph TriangleChain() {
  // Two triangles sharing vertex 2: {0,1,2} and {2,3,4}; labels A=0 B=1.
  GraphBuilder b;
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  b.AddEdge(2, 4);
  return std::move(b.Build()).value();
}

Pattern LabeledEdge(LabelId a, LabelId b) {
  Pattern p;
  p.AddVertex(a);
  p.AddVertex(b);
  p.AddEdge(0, 1);
  return p;
}

TEST(Vf2Test, SingleVertexEmbeddings) {
  LabeledGraph g = TriangleChain();
  Pattern p(0);
  OccurrenceList embeddings = FindEmbeddings(p, g);
  EXPECT_EQ(embeddings.size(), 3u);  // vertices 0, 2, 4 carry label 0
}

TEST(Vf2Test, EdgeEmbeddingsCountBothOrientationsWhenLabelsEqual) {
  LabeledGraph g = TriangleChain();
  Pattern p = LabeledEdge(0, 0);
  // Edges between label-0 vertices: 0-2 and 2-4, each in two orientations.
  EXPECT_EQ(FindEmbeddings(p, g).size(), 4u);
}

TEST(Vf2Test, EdgeEmbeddingsLabelDirected) {
  LabeledGraph g = TriangleChain();
  Pattern p = LabeledEdge(1, 0);
  // B-A edges: 1-0, 1-2, 3-2, 3-4 (each once: orientation fixed by labels).
  EXPECT_EQ(FindEmbeddings(p, g).size(), 4u);
}

TEST(Vf2Test, TriangleEmbeddings) {
  LabeledGraph g = TriangleChain();
  Pattern triangle;
  triangle.AddVertex(0);
  triangle.AddVertex(0);
  triangle.AddVertex(1);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  // Each geometric triangle matches twice (swap the two label-0 vertices).
  EXPECT_EQ(FindEmbeddings(triangle, g).size(), 4u);
}

TEST(Vf2Test, NoEmbeddingForMissingLabel) {
  LabeledGraph g = TriangleChain();
  Pattern p(9);
  EXPECT_TRUE(FindEmbeddings(p, g).empty());
  EXPECT_FALSE(ContainsEmbedding(p, g));
}

TEST(Vf2Test, MaxEmbeddingsCap) {
  LabeledGraph g = TriangleChain();
  Pattern p = LabeledEdge(0, 0);
  Vf2Options options;
  options.max_embeddings = 2;
  EXPECT_EQ(FindEmbeddings(p, g, options).size(), 2u);
}

TEST(Vf2Test, AnchoredSearchRestrictsHead) {
  LabeledGraph g = TriangleChain();
  Pattern p = LabeledEdge(0, 1);
  Vf2Options options;
  options.anchor_pattern_vertex = 0;
  options.anchor_graph_vertex = 4;
  OccurrenceList embeddings = FindEmbeddings(p, g, options);
  ASSERT_EQ(embeddings.size(), 1u);  // 4 has one B-neighbor: 3
  EXPECT_EQ(embeddings[0][0], 4);
  EXPECT_EQ(embeddings[0][1], 3);
}

TEST(Vf2Test, MaxStatesAborts) {
  Rng rng(3);
  GraphBuilder b = GenerateErdosRenyi(200, 6.0, 1, &rng);
  LabeledGraph g = std::move(b.Build()).value();
  Pattern path;
  for (int i = 0; i < 6; ++i) path.AddVertex(0);
  for (int i = 0; i + 1 < 6; ++i) path.AddEdge(i, i + 1);
  Vf2Options options;
  options.max_states = 50;
  Vf2Stats stats = EnumerateEmbeddings(
      path, g, options, [](std::span<const VertexId>) { return true; });
  EXPECT_TRUE(stats.aborted);
  EXPECT_LE(stats.states_visited, 51);
}

TEST(Vf2Test, CallbackCanStopEarly) {
  LabeledGraph g = TriangleChain();
  Pattern p = LabeledEdge(0, 0);
  int seen = 0;
  EnumerateEmbeddings(p, g, {}, [&seen](std::span<const VertexId>) {
    ++seen;
    return false;
  });
  EXPECT_EQ(seen, 1);
}

// FindEmbeddings collects exactly the rows the callback sees, in order,
// with no cap, a cap of one row and a cap inside the list; a capped list
// is a prefix of the uncapped one.
TEST(Vf2Test, FindEmbeddingsListsTheCallbackRows) {
  Rng rng(17);
  LabeledGraph g =
      std::move(GenerateErdosRenyi(60, 3.0, 2, &rng).Build()).value();
  Pattern path;
  for (int i = 0; i < 3; ++i) path.AddVertex(0);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  Rows all;
  for (int64_t cap : {int64_t{0}, int64_t{1}, int64_t{7}}) {
    Vf2Options options;
    options.max_embeddings = cap;
    Rows seen;
    EnumerateEmbeddings(path, g, options,
                        [&seen](std::span<const VertexId> row) {
                          seen.emplace_back(row.begin(), row.end());
                          return true;
                        });
    const OccurrenceList found = FindEmbeddings(path, g, options);
    EXPECT_EQ(found.width(), path.NumVertices());
    EXPECT_EQ(RowsOf(found), seen) << "max_embeddings=" << cap;
    if (cap == 0) {
      all = seen;
      ASSERT_GT(all.size(), 7u);
    } else {
      EXPECT_EQ(seen, Rows(all.begin(), all.begin() + cap));
    }
  }
}

TEST(Vf2Test, EmbeddingsAreInjective) {
  LabeledGraph g = TriangleChain();
  Pattern triangle;
  triangle.AddVertex(0);
  triangle.AddVertex(0);
  triangle.AddVertex(1);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  for (OccurrenceList::Row e : FindEmbeddings(triangle, g)) {
    std::vector<VertexId> image = SortedImage(e);
    EXPECT_EQ(std::unique(image.begin(), image.end()), image.end());
  }
}

TEST(Vf2Test, EmbeddingsPreserveEdges) {
  LabeledGraph g = TriangleChain();
  Pattern p;
  p.AddVertex(0);
  p.AddVertex(1);
  p.AddVertex(0);
  p.AddEdge(0, 1);
  p.AddEdge(1, 2);
  for (OccurrenceList::Row e : FindEmbeddings(p, g)) {
    for (const auto& [u, v] : p.Edges()) {
      EXPECT_TRUE(g.HasEdge(e[u], e[v]));
    }
  }
}

TEST(IsomorphismTest, IdenticalPatternsIsomorphic) {
  Pattern p = LabeledEdge(0, 1);
  EXPECT_TRUE(ArePatternsIsomorphic(p, p));
}

TEST(IsomorphismTest, RelabeledVerticesIsomorphic) {
  Pattern a;
  a.AddVertex(0);
  a.AddVertex(1);
  a.AddVertex(2);
  a.AddEdge(0, 1);
  a.AddEdge(1, 2);
  Pattern b;
  b.AddVertex(2);
  b.AddVertex(1);
  b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  EXPECT_TRUE(ArePatternsIsomorphic(a, b));
}

TEST(IsomorphismTest, FindIsomorphismReturnsAVertexMap) {
  // a: labeled path 0-1-2 with a pendant edge label; b: the same pattern
  // numbered in reverse.
  Pattern a;
  a.AddVertex(5);
  a.AddVertex(6);
  a.AddVertex(7);
  a.AddEdge(0, 1, 3);
  a.AddEdge(1, 2, 4);
  Pattern b;
  b.AddVertex(7);
  b.AddVertex(6);
  b.AddVertex(5);
  b.AddEdge(0, 1, 4);
  b.AddEdge(1, 2, 3);
  std::optional<std::vector<VertexId>> map = FindIsomorphism(a, b);
  ASSERT_TRUE(map.has_value());
  EXPECT_EQ(*map, (std::vector<VertexId>{2, 1, 0}));
  for (const auto& e : a.LabeledEdges()) {
    EXPECT_EQ(b.EdgeLabel((*map)[e.u], (*map)[e.v]), e.label);
  }
  // Swapping the edge labels in b breaks the isomorphism.
  Pattern c;
  c.AddVertex(7);
  c.AddVertex(6);
  c.AddVertex(5);
  c.AddEdge(0, 1, 3);
  c.AddEdge(1, 2, 4);
  EXPECT_FALSE(FindIsomorphism(a, c).has_value());
  // A single vertex maps onto itself.
  Pattern one;
  one.AddVertex(9);
  EXPECT_EQ(FindIsomorphism(one, one), std::vector<VertexId>{0});
}

TEST(IsomorphismTest, DifferentLabelsNotIsomorphic) {
  EXPECT_FALSE(ArePatternsIsomorphic(LabeledEdge(0, 1), LabeledEdge(0, 2)));
}

TEST(IsomorphismTest, DifferentStructureNotIsomorphic) {
  Pattern path;
  for (int i = 0; i < 4; ++i) path.AddVertex(0);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  path.AddEdge(2, 3);
  Pattern star;
  for (int i = 0; i < 4; ++i) star.AddVertex(0);
  star.AddEdge(0, 1);
  star.AddEdge(0, 2);
  star.AddEdge(0, 3);
  EXPECT_FALSE(ArePatternsIsomorphic(path, star));
}

TEST(IsomorphismTest, EmptyAndSingletons) {
  Pattern empty;
  EXPECT_TRUE(ArePatternsIsomorphic(empty, empty));
  EXPECT_TRUE(ArePatternsIsomorphic(Pattern(3), Pattern(3)));
  EXPECT_FALSE(ArePatternsIsomorphic(Pattern(3), Pattern(4)));
}

TEST(IsomorphismTest, RandomPermutationProperty) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    Pattern p = RandomConnectedPattern(
        static_cast<int32_t>(rng.UniformInt(2, 12)), 0.3, 3, &rng);
    // Permute.
    std::vector<VertexId> perm(p.NumVertices());
    for (VertexId v = 0; v < p.NumVertices(); ++v) perm[v] = v;
    rng.Shuffle(&perm);
    Pattern q;
    std::vector<LabelId> labels(perm.size());
    for (VertexId v = 0; v < p.NumVertices(); ++v) labels[perm[v]] = p.Label(v);
    for (LabelId l : labels) q.AddVertex(l);
    for (const auto& [u, v] : p.Edges()) q.AddEdge(perm[u], perm[v]);
    EXPECT_TRUE(ArePatternsIsomorphic(p, q));
  }
}

/// \p p built into a LabeledGraph with GraphBuilder: the host VF2 searched
/// for FindIsomorphism and IsSubPattern before they searched the pattern
/// itself, kept here as their reference.
LabeledGraph BuilderHost(const Pattern& p) {
  GraphBuilder builder;
  for (VertexId v = 0; v < p.NumVertices(); ++v) builder.AddVertex(p.Label(v));
  for (const auto& e : p.LabeledEdges()) builder.AddEdge(e.u, e.v, e.label);
  Result<LabeledGraph> graph = builder.Build();
  EXPECT_TRUE(graph.ok());
  return std::move(graph).value();
}

/// FindIsomorphism's map as the search over BuilderHost(b) finds it. With
/// equal vertex and edge counts the first embedding is an isomorphism.
std::optional<std::vector<VertexId>> ReferenceIsomorphism(const Pattern& a,
                                                          const Pattern& b) {
  if (a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges()) {
    return std::nullopt;
  }
  Vf2Options options;
  options.max_embeddings = 1;
  std::optional<std::vector<VertexId>> map;
  EnumerateEmbeddings(a, BuilderHost(b), options,
                      [&map](std::span<const VertexId> row) {
                        map.emplace(row.begin(), row.end());
                        return false;
                      });
  return map;
}

/// \p p with vertex v renumbered perm[v].
Pattern Permuted(const Pattern& p, const std::vector<VertexId>& perm) {
  std::vector<LabelId> labels(perm.size());
  for (VertexId v = 0; v < p.NumVertices(); ++v) labels[perm[v]] = p.Label(v);
  Pattern q;
  for (LabelId l : labels) q.AddVertex(l);
  for (const auto& e : p.LabeledEdges()) {
    q.AddEdge(perm[e.u], perm[e.v], e.label);
  }
  return q;
}

/// A random connected pattern over \p num_labels vertex labels; with
/// \p edge_labels, each edge gets a label in {0, 1, 2}.
Pattern RandomPattern(int32_t n, LabelId num_labels, bool edge_labels,
                      Rng* rng) {
  Pattern shape = RandomConnectedPattern(n, 0.4, num_labels, rng);
  if (!edge_labels) return shape;
  Pattern p;
  for (VertexId v = 0; v < shape.NumVertices(); ++v) p.AddVertex(shape.Label(v));
  for (const auto& [u, v] : shape.Edges()) {
    p.AddEdge(u, v, static_cast<EdgeLabelId>(rng->UniformInt(0, 2)));
  }
  return p;
}

TEST(BuilderHostTest, PreservesStructure) {
  Pattern p;
  p.AddVertex(4);
  p.AddVertex(2);
  p.AddVertex(2);
  p.AddEdge(0, 1);
  p.AddEdge(1, 2, 3);
  LabeledGraph g = BuilderHost(p);
  EXPECT_EQ(g.NumVertices(), 3);
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_EQ(g.Label(0), 4);
  EXPECT_EQ(g.Label(1), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.EdgeLabel(0, 1), 0);
  EXPECT_EQ(g.EdgeLabel(2, 1), 3);
}

class PatternHostTest : public ::testing::TestWithParam<bool> {};

// FindIsomorphism searches the second pattern itself; the map it returns
// must be the one the search over a built graph returned, automorphisms
// (repeated labels) included, since IsoIndex hands it to the fold.
TEST_P(PatternHostTest, MapEqualsSearchOverBuiltGraph) {
  const bool edge_labels = GetParam();
  Rng rng(edge_labels ? 91 : 19);
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<int32_t>(rng.UniformInt(1, 14));
    const auto labels = static_cast<LabelId>(rng.UniformInt(1, 3));
    Pattern a = RandomPattern(n, labels, edge_labels, &rng);
    std::vector<VertexId> perm(static_cast<size_t>(n));
    for (VertexId v = 0; v < n; ++v) perm[v] = v;
    rng.Shuffle(&perm);
    Pattern b = Permuted(a, perm);
    std::optional<std::vector<VertexId>> map = FindIsomorphism(a, b);
    ASSERT_TRUE(map.has_value()) << a.ToString() << " vs " << b.ToString();
    EXPECT_EQ(map, ReferenceIsomorphism(a, b)) << a.ToString();
    for (const auto& e : a.LabeledEdges()) {
      EXPECT_EQ(b.EdgeLabel((*map)[e.u], (*map)[e.v]), e.label);
    }
    // A pattern of the same size that is most likely not isomorphic.
    Pattern c = RandomPattern(n, labels, edge_labels, &rng);
    if (c.NumEdges() == a.NumEdges()) {
      EXPECT_EQ(FindIsomorphism(a, c), ReferenceIsomorphism(a, c))
          << a.ToString() << " vs " << c.ToString();
    }
  }
}

TEST_P(PatternHostTest, IsSubPatternEqualsSearchOverBuiltGraph) {
  const bool edge_labels = GetParam();
  Rng rng(edge_labels ? 5 : 55);
  int contained = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const auto labels = static_cast<LabelId>(rng.UniformInt(1, 3));
    Pattern super = RandomPattern(
        static_cast<int32_t>(rng.UniformInt(2, 14)), labels, edge_labels,
        &rng);
    Pattern sub = RandomPattern(static_cast<int32_t>(rng.UniformInt(1, 6)),
                                labels, edge_labels, &rng);
    const bool expected = sub.NumVertices() <= super.NumVertices() &&
                          sub.NumEdges() <= super.NumEdges() &&
                          ContainsEmbedding(sub, BuilderHost(super));
    EXPECT_EQ(IsSubPattern(sub, super), expected)
        << sub.ToString() << " in " << super.ToString();
    contained += expected;
  }
  // Both answers occur, or the comparison shows little.
  EXPECT_GT(contained, 10);
  EXPECT_LT(contained, 190);
}

INSTANTIATE_TEST_SUITE_P(EdgeLabels, PatternHostTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "EdgeLabeled" : "Unlabeled";
                         });

}  // namespace
}  // namespace spidermine
