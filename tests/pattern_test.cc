#include "pattern/pattern.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "occurrence_test_util.h"
#include "pattern/embedding.h"

namespace spidermine {
namespace {

Pattern PathPattern(int n, LabelId label = 0) {
  Pattern p;
  for (int i = 0; i < n; ++i) p.AddVertex(label);
  for (int i = 0; i + 1 < n; ++i) p.AddEdge(i, i + 1);
  return p;
}

TEST(PatternTest, SingleVertexConstructor) {
  Pattern p(7);
  EXPECT_EQ(p.NumVertices(), 1);
  EXPECT_EQ(p.NumEdges(), 0);
  EXPECT_EQ(p.Label(0), 7);
}

TEST(PatternTest, AddEdgeRejectsSelfLoopsAndDuplicates) {
  Pattern p = PathPattern(3);
  EXPECT_FALSE(p.AddEdge(1, 1));
  EXPECT_FALSE(p.AddEdge(0, 1));  // duplicate
  EXPECT_FALSE(p.AddEdge(1, 0));  // duplicate, reversed
  EXPECT_FALSE(p.AddEdge(0, 9));  // out of range
  EXPECT_EQ(p.NumEdges(), 2);
  EXPECT_TRUE(p.AddEdge(0, 2));
  EXPECT_EQ(p.NumEdges(), 3);
}

TEST(PatternTest, NeighborsSortedAndDegrees) {
  Pattern p;
  for (int i = 0; i < 4; ++i) p.AddVertex(0);
  p.AddEdge(2, 3);
  p.AddEdge(2, 0);
  p.AddEdge(2, 1);
  auto nbrs = p.Neighbors(2);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_EQ(nbrs[0], 0);
  EXPECT_EQ(nbrs[1], 1);
  EXPECT_EQ(nbrs[2], 3);
  EXPECT_EQ(p.Degree(2), 3);
  EXPECT_EQ(p.Degree(0), 1);
}

TEST(PatternTest, BfsDistancesAndConnectivity) {
  Pattern p = PathPattern(4);
  std::vector<int32_t> dist = p.BfsDistances(0);
  EXPECT_EQ(dist[3], 3);
  EXPECT_TRUE(p.IsConnected());
  p.AddVertex(0);  // now disconnected
  EXPECT_FALSE(p.IsConnected());
}

TEST(PatternTest, EmptyAndSingletonAreConnected) {
  Pattern empty;
  EXPECT_TRUE(empty.IsConnected());
  Pattern single(0);
  EXPECT_TRUE(single.IsConnected());
}

TEST(PatternTest, DiameterAndEccentricity) {
  Pattern p = PathPattern(5);
  EXPECT_EQ(p.Diameter(), 4);
  EXPECT_EQ(p.Eccentricity(0), 4);
  EXPECT_EQ(p.Eccentricity(2), 2);
  EXPECT_TRUE(p.IsRBoundedFrom(2, 2));
  EXPECT_FALSE(p.IsRBoundedFrom(2, 1));
  EXPECT_TRUE(p.IsRBoundedFrom(0, 4));
}

TEST(PatternTest, DisconnectedDiameterIsUnbounded) {
  Pattern p = PathPattern(2);
  p.AddVertex(0);
  EXPECT_EQ(p.Diameter(), INT32_MAX);
  EXPECT_EQ(p.Eccentricity(0), INT32_MAX);
}

TEST(PatternTest, InducedSubgraph) {
  // Star: center 0 with leaves 1, 2, 3; leaf-leaf edge 1-2.
  Pattern p;
  p.AddVertex(9);
  for (int i = 0; i < 3; ++i) {
    VertexId leaf = p.AddVertex(i);
    p.AddEdge(0, leaf);
  }
  p.AddEdge(1, 2);
  std::vector<VertexId> keep{0, 1, 2};
  Pattern sub = p.InducedSubgraph(keep);
  EXPECT_EQ(sub.NumVertices(), 3);
  EXPECT_EQ(sub.NumEdges(), 3);  // 0-1, 0-2, 1-2
  EXPECT_EQ(sub.Label(0), 9);
  EXPECT_EQ(sub.Label(1), 0);
  EXPECT_EQ(sub.Label(2), 1);
}

TEST(PatternTest, InducedSubgraphDropsOutsideEdges) {
  Pattern p = PathPattern(4);
  std::vector<VertexId> keep{0, 2};
  Pattern sub = p.InducedSubgraph(keep);
  EXPECT_EQ(sub.NumVertices(), 2);
  EXPECT_EQ(sub.NumEdges(), 0);
}

TEST(PatternTest, SortedLabelsAndEdges) {
  Pattern p;
  p.AddVertex(5);
  p.AddVertex(1);
  p.AddVertex(3);
  p.AddEdge(2, 0);
  p.AddEdge(1, 2);
  EXPECT_EQ(p.SortedLabels(), (std::vector<LabelId>{1, 3, 5}));
  auto edges = p.Edges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (std::pair<VertexId, VertexId>{0, 2}));
  EXPECT_EQ(edges[1], (std::pair<VertexId, VertexId>{1, 2}));
}

TEST(PatternTest, EqualityIsStructuralIdentity) {
  Pattern a = PathPattern(3, 1);
  Pattern b = PathPattern(3, 1);
  EXPECT_EQ(a, b);
  b.AddEdge(0, 2);
  EXPECT_FALSE(a == b);
}

TEST(PatternTest, ToStringIsInformative) {
  Pattern p = PathPattern(2, 4);
  std::string s = p.ToString();
  EXPECT_NE(s.find("n=2"), std::string::npos);
  EXPECT_NE(s.find("m=1"), std::string::npos);
  EXPECT_NE(s.find("0-1"), std::string::npos);
}

TEST(PatternTest, EdgeLabelAtFollowsNeighborOrder) {
  Pattern p;
  for (int i = 0; i < 4; ++i) p.AddVertex(0);
  p.AddEdge(0, 3, 7);
  p.AddEdge(0, 1);
  p.AddEdge(0, 2, 5);
  ASSERT_EQ(p.Degree(0), 3);
  EXPECT_EQ(p.EdgeLabelAt(0, 0), 0);  // 0-1, unlabeled
  EXPECT_EQ(p.EdgeLabelAt(0, 1), 5);  // 0-2
  EXPECT_EQ(p.EdgeLabelAt(0, 2), 7);  // 0-3
  EXPECT_EQ(p.EdgeLabelAt(3, 0), 7);
  EXPECT_EQ(p.EdgeLabel(2, 0), 5);
  EXPECT_EQ(p.EdgeLabel(1, 2), -1);
  EXPECT_EQ(p.EdgeLabel(0, 9), -1);
}

/// The pattern as a reference model keeps it: one neighbour set per vertex
/// and a label per edge (u < v).
struct ReferencePattern {
  std::vector<LabelId> labels;
  std::vector<std::set<VertexId>> adjacency;
  std::map<std::pair<VertexId, VertexId>, EdgeLabelId> edge_labels;

  bool AddEdge(VertexId u, VertexId v, EdgeLabelId label) {
    const auto n = static_cast<VertexId>(labels.size());
    if (u == v || u < 0 || v < 0 || u >= n || v >= n) return false;
    if (!adjacency[u].insert(v).second) return false;
    adjacency[v].insert(u);
    edge_labels[{std::min(u, v), std::max(u, v)}] = label;
    return true;
  }

  EdgeLabelId EdgeLabel(VertexId u, VertexId v) const {
    auto it = edge_labels.find({std::min(u, v), std::max(u, v)});
    return it == edge_labels.end() ? -1 : it->second;
  }
};

/// Checks every observable of \p p against \p ref.
void ExpectMatches(const Pattern& p, const ReferencePattern& ref) {
  const auto n = static_cast<VertexId>(ref.labels.size());
  ASSERT_EQ(p.NumVertices(), n);
  std::vector<Pattern::LabeledEdge> edges;
  bool labeled = false;
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(p.Label(v), ref.labels[v]);
    const std::vector<VertexId> expected(ref.adjacency[v].begin(),
                                         ref.adjacency[v].end());
    const std::span<const VertexId> got = p.Neighbors(v);
    ASSERT_EQ(std::vector<VertexId>(got.begin(), got.end()), expected);
    EXPECT_EQ(p.Degree(v), static_cast<int32_t>(expected.size()));
    for (size_t i = 0; i < expected.size(); ++i) {
      const EdgeLabelId label = ref.EdgeLabel(v, expected[i]);
      EXPECT_EQ(p.EdgeLabelAt(v, i), label);
      labeled |= label != 0;
      if (v < expected[i]) edges.push_back({v, expected[i], label});
    }
    for (VertexId u = -1; u <= n; ++u) {
      EXPECT_EQ(p.HasEdge(v, u), ref.EdgeLabel(v, u) >= 0);
      EXPECT_EQ(p.EdgeLabel(v, u), ref.EdgeLabel(v, u));
    }
  }
  EXPECT_EQ(p.NumEdges(), static_cast<int32_t>(ref.edge_labels.size()));
  EXPECT_EQ(p.HasEdgeLabels(), labeled);
  const std::vector<Pattern::LabeledEdge> got = p.LabeledEdges();
  ASSERT_EQ(got.size(), edges.size());
  std::vector<std::pair<VertexId, VertexId>> plain;
  for (size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(got[i].u, edges[i].u);
    EXPECT_EQ(got[i].v, edges[i].v);
    EXPECT_EQ(got[i].label, edges[i].label);
    plain.emplace_back(edges[i].u, edges[i].v);
  }
  EXPECT_EQ(p.Edges(), plain);
}

// Random AddVertex/AddEdge sequences (self-loops, duplicates and
// out-of-range ids included, which are rejected) against the reference
// model, with a copy taken midway that must stay equal to the state it
// copied while the original grows on.
TEST(PatternTest, MatchesReferenceOnRandomGrowth) {
  Rng rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    Pattern p;
    ReferencePattern ref;
    const bool labeled_edges = trial % 2 == 1;
    const auto steps = static_cast<int>(rng.UniformInt(0, 60));
    Pattern copy;
    ReferencePattern copy_ref;
    const auto copy_at = static_cast<int>(rng.UniformInt(0, steps));
    for (int step = 0; step < steps; ++step) {
      if (step == copy_at) {
        copy = p;
        copy_ref = ref;
      }
      const auto n = static_cast<VertexId>(ref.labels.size());
      if (n == 0 || rng.Bernoulli(0.3)) {
        const auto label = static_cast<LabelId>(rng.UniformInt(0, 4));
        EXPECT_EQ(p.AddVertex(label), n);
        ref.labels.push_back(label);
        ref.adjacency.emplace_back();
        continue;
      }
      const auto u = static_cast<VertexId>(rng.UniformInt(-1, n));
      const auto v = rng.Bernoulli(0.1)
                         ? u
                         : static_cast<VertexId>(rng.UniformInt(-1, n));
      const auto label = labeled_edges && rng.Bernoulli(0.5)
                             ? static_cast<EdgeLabelId>(rng.UniformInt(1, 3))
                             : 0;
      EXPECT_EQ(p.AddEdge(u, v, label), ref.AddEdge(u, v, label))
          << "trial " << trial << " edge " << u << "-" << v;
    }
    ExpectMatches(p, ref);
    ExpectMatches(copy, copy_ref);
    const Pattern again = p;
    EXPECT_EQ(again, p);
    EXPECT_EQ(copy == p, copy_ref.labels == ref.labels &&
                             copy_ref.edge_labels == ref.edge_labels);
    Pattern grown = p;
    grown.AddVertex(0);
    EXPECT_FALSE(grown == p);
  }
}

// OccurrenceList::SortRows orders equal-width rows as std::sort orders the
// same rows held as vectors. Small vertex ranges make shared prefixes and
// equal rows common, and copies add exact duplicates.
TEST(OccurrenceListTest, SortRowsMatchesSortOverRowVectors) {
  Rng rng(29);
  for (int trial = 0; trial < 300; ++trial) {
    const auto width = static_cast<int32_t>(rng.UniformInt(1, 6));
    const auto max_vertex = static_cast<VertexId>(rng.UniformInt(1, 40));
    const auto count = static_cast<int32_t>(rng.UniformInt(0, 200));
    Rows rows;
    while (static_cast<int32_t>(rows.size()) < count) {
      if (!rows.empty() && rng.Bernoulli(0.3)) {
        rows.push_back(rows[rng.Index(rows.size())]);
        continue;
      }
      std::vector<VertexId> row(static_cast<size_t>(width));
      for (VertexId& v : row) {
        v = static_cast<VertexId>(rng.UniformInt(0, max_vertex));
      }
      rows.push_back(std::move(row));
    }
    OccurrenceList list = ListOf(rows, width);
    list.SortRows();
    Rows expected = rows;
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(list.width(), width);
    ASSERT_EQ(RowsOf(list), expected) << "trial " << trial;
  }
}

}  // namespace
}  // namespace spidermine
