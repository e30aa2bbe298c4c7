#include "pattern/dfs_code.h"

#include <gtest/gtest.h>

#include "common/fnv1a.h"
#include "common/rng.h"
#include "gen/pattern_factory.h"
#include "pattern/vf2.h"

namespace spidermine {
namespace {

/// Relabels pattern vertices by the permutation perm (new id of v =
/// perm[v]); the result is isomorphic by construction.
Pattern Permuted(const Pattern& p, const std::vector<VertexId>& perm) {
  Pattern q;
  std::vector<LabelId> labels(perm.size());
  for (VertexId v = 0; v < p.NumVertices(); ++v) {
    labels[perm[v]] = p.Label(v);
  }
  for (LabelId l : labels) q.AddVertex(l);
  for (const auto& [u, v] : p.Edges()) q.AddEdge(perm[u], perm[v]);
  return q;
}

/// The minimum DFS code as a string: equal iff the patterns are isomorphic.
std::string CodeString(const Pattern& p) {
  return DfsCodeToString(MinimumDfsCode(p));
}

TEST(DfsCodeTest, SingleVertex) {
  Pattern p(5);
  DfsCode code = MinimumDfsCode(p);
  EXPECT_EQ(code.root_label, 5);
  EXPECT_TRUE(code.edges.empty());
  EXPECT_EQ(DfsCodeToString(code), "r5");
}

TEST(DfsCodeTest, SingleEdgeOrientation) {
  Pattern p;
  p.AddVertex(3);
  p.AddVertex(1);
  p.AddEdge(0, 1);
  DfsCode code = MinimumDfsCode(p);
  ASSERT_EQ(code.edges.size(), 1u);
  // Canonical orientation starts at the smaller label.
  EXPECT_EQ(code.edges[0].from_label, 1);
  EXPECT_EQ(code.edges[0].to_label, 3);
}

TEST(DfsCodeTest, DisconnectedFlagged) {
  Pattern p;
  p.AddVertex(0);
  p.AddVertex(1);
  DfsCode code = MinimumDfsCode(p);
  EXPECT_EQ(code.root_label, -2);
}

TEST(DfsCodeTest, EmptyPattern) {
  Pattern p;
  EXPECT_EQ(MinimumDfsCode(p).root_label, -1);
}

TEST(DfsCodeTest, TriangleVsPathDiffer) {
  Pattern triangle;
  for (int i = 0; i < 3; ++i) triangle.AddVertex(0);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  Pattern path;
  for (int i = 0; i < 3; ++i) path.AddVertex(0);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  EXPECT_NE(CodeString(triangle), CodeString(path));
}

TEST(DfsCodeTest, LabelsDistinguish) {
  Pattern a;
  a.AddVertex(0);
  a.AddVertex(1);
  a.AddEdge(0, 1);
  Pattern b;
  b.AddVertex(0);
  b.AddVertex(2);
  b.AddEdge(0, 1);
  EXPECT_NE(CodeString(a), CodeString(b));
}

TEST(DfsCodeTest, PermutationInvarianceSmallFixed) {
  // A labeled 4-cycle with a chord.
  Pattern p;
  p.AddVertex(0);
  p.AddVertex(1);
  p.AddVertex(0);
  p.AddVertex(1);
  p.AddEdge(0, 1);
  p.AddEdge(1, 2);
  p.AddEdge(2, 3);
  p.AddEdge(3, 0);
  p.AddEdge(0, 2);
  const std::string canonical = CodeString(p);
  std::vector<VertexId> perm{0, 1, 2, 3};
  std::sort(perm.begin(), perm.end());
  do {
    EXPECT_EQ(CodeString(Permuted(p, perm)), canonical);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

TEST(DfsCodeTest, RoundTripThroughPatternFromDfsCode) {
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    Pattern p = RandomConnectedPattern(
        static_cast<int32_t>(rng.UniformInt(2, 10)), 0.3, 4, &rng);
    DfsCode code = MinimumDfsCode(p);
    Pattern rebuilt = PatternFromDfsCode(code);
    EXPECT_TRUE(ArePatternsIsomorphic(p, rebuilt)) << p.ToString();
    EXPECT_EQ(CodeString(rebuilt), DfsCodeToString(code));
  }
}

TEST(DfsCodeTest, CompareCodesPrefixOrder) {
  Pattern p;
  for (int i = 0; i < 3; ++i) p.AddVertex(0);
  p.AddEdge(0, 1);
  p.AddEdge(1, 2);
  DfsCode longer = MinimumDfsCode(p);
  DfsCode shorter = longer;
  shorter.edges.pop_back();
  EXPECT_LT(CompareDfsCodes(shorter, longer), 0);
  EXPECT_GT(CompareDfsCodes(longer, shorter), 0);
  EXPECT_EQ(CompareDfsCodes(longer, longer), 0);
}

TEST(DfsCodeTest, BackwardEdgePrecedesForward) {
  DfsEdge backward{2, 0, 5, 5};
  DfsEdge forward{2, 3, 5, 5};
  EXPECT_LT(CompareDfsEdges(backward, forward), 0);
  EXPECT_GT(CompareDfsEdges(forward, backward), 0);
}

TEST(DfsCodeTest, DeeperForwardSourcePrecedes) {
  DfsEdge from_deep{2, 3, 0, 0};
  DfsEdge from_shallow{1, 3, 0, 0};
  EXPECT_LT(CompareDfsEdges(from_deep, from_shallow), 0);
}

class DfsCodePermutationProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DfsCodePermutationProperty, CanonicalFormIsPermutationInvariant) {
  Rng rng(GetParam());
  Pattern p = RandomConnectedPattern(
      static_cast<int32_t>(rng.UniformInt(3, 12)), 0.4,
      static_cast<LabelId>(rng.UniformInt(1, 5)), &rng);
  const std::string canonical = CodeString(p);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<VertexId> perm(p.NumVertices());
    for (VertexId v = 0; v < p.NumVertices(); ++v) perm[v] = v;
    rng.Shuffle(&perm);
    EXPECT_EQ(CodeString(Permuted(p, perm)), canonical)
        << "pattern: " << p.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, DfsCodePermutationProperty,
                         ::testing::Range<uint64_t>(0, 25));

// PatternIsoHash folds the WL bytes without building the string; it must
// stay FNV-1a (with the key's basis) over WlRefinementString, with and
// without edge labels, including the 0 -> 1 remap of the sentinel.
TEST(PatternIsoHashTest, IsFnv1aOverWlRefinementString) {
  Rng rng(2024);
  for (int trial = 0; trial < 400; ++trial) {
    Pattern shape = RandomConnectedPattern(
        static_cast<int32_t>(rng.UniformInt(1, 30)), 0.4,
        static_cast<LabelId>(rng.UniformInt(1, 40)), &rng);
    Pattern p;
    for (VertexId v = 0; v < shape.NumVertices(); ++v) {
      p.AddVertex(shape.Label(v));
    }
    const bool edge_labels = trial % 2 == 1;
    for (const auto& [u, v] : shape.Edges()) {
      p.AddEdge(u, v,
                edge_labels ? static_cast<EdgeLabelId>(rng.UniformInt(0, 4))
                            : 0);
    }
    const std::string wl = WlRefinementString(p);
    Fnv1a h(1469598103934665603ULL);
    h.MixBytes(wl.data(), wl.size());
    EXPECT_EQ(PatternIsoHash(p), h.hash() == 0 ? 1 : h.hash()) << wl;
  }
}

}  // namespace
}  // namespace spidermine
