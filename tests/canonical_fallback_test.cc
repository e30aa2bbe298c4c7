#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/pattern_factory.h"
#include "pattern/dfs_code.h"
#include "pattern/vf2.h"

/// \file canonical_fallback_test.cc
/// The isomorphism-invariant keys that stand in for the exact minimum DFS
/// code where its search would be exponential: WlRefinementString (whose
/// bytes PatternIsoHash folds) on large symmetric patterns, and the exact
/// code on the small symmetric ones it still handles.

namespace spidermine {
namespace {

Pattern Permuted(const Pattern& p, const std::vector<VertexId>& perm) {
  Pattern q;
  std::vector<LabelId> labels(perm.size());
  for (VertexId v = 0; v < p.NumVertices(); ++v) labels[perm[v]] = p.Label(v);
  for (LabelId l : labels) q.AddVertex(l);
  for (const auto& [u, v] : p.Edges()) q.AddEdge(perm[u], perm[v]);
  return q;
}

/// An n-cycle over one label: few (label, degree) signatures, many
/// automorphisms.
Pattern Cycle(int32_t n) {
  Pattern p;
  for (int32_t i = 0; i < n; ++i) p.AddVertex(0);
  for (int32_t i = 0; i < n; ++i) p.AddEdge(i, (i + 1) % n);
  return p;
}

TEST(WlRefinementStringTest, PermutationInvariantOnSymmetricPatterns) {
  Rng rng(5);
  Pattern p = Cycle(24);
  const std::string key = WlRefinementString(p);
  const uint64_t hash = PatternIsoHash(p);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<VertexId> perm(p.NumVertices());
    for (VertexId v = 0; v < p.NumVertices(); ++v) perm[v] = v;
    rng.Shuffle(&perm);
    const Pattern q = Permuted(p, perm);
    EXPECT_EQ(WlRefinementString(q), key);
    EXPECT_EQ(PatternIsoHash(q), hash);
  }
}

TEST(WlRefinementStringTest, DistinguishesCycleLengths) {
  // WL separates cycles of different length (different n already).
  EXPECT_NE(WlRefinementString(Cycle(20)), WlRefinementString(Cycle(22)));
}

TEST(WlRefinementStringTest, SeparatesStarFromPath) {
  // Same label multiset and sizes. Three rounds are not a complete
  // invariant even on trees, though: the 22-vertex caterpillars of
  // baselines_test's KeepsLargeFewSignaturePatternsApart collide.
  Pattern star;
  star.AddVertex(0);
  for (int i = 0; i < 5; ++i) {
    VertexId leaf = star.AddVertex(0);
    star.AddEdge(0, leaf);
  }
  Pattern path;
  for (int i = 0; i < 6; ++i) path.AddVertex(0);
  for (int i = 0; i + 1 < 6; ++i) path.AddEdge(i, i + 1);
  EXPECT_NE(WlRefinementString(star), WlRefinementString(path));
}

TEST(WlRefinementStringTest, EqualForIsomorphicPairs) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    Pattern p = RandomConnectedPattern(
        static_cast<int32_t>(rng.UniformInt(3, 20)), 0.3, 2, &rng);
    std::vector<VertexId> perm(p.NumVertices());
    for (VertexId v = 0; v < p.NumVertices(); ++v) perm[v] = v;
    rng.Shuffle(&perm);
    EXPECT_EQ(WlRefinementString(p), WlRefinementString(Permuted(p, perm)));
  }
}

TEST(MinimumDfsCodeTest, ExactOnSmallSymmetricPatterns) {
  // K4 over one label: fully symmetric, still a small exact search.
  Pattern k4;
  for (int i = 0; i < 4; ++i) k4.AddVertex(0);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) k4.AddEdge(i, j);
  }
  const DfsCode code = MinimumDfsCode(k4);
  EXPECT_EQ(DfsCodeToString(code).substr(0, 1), "r");
  EXPECT_EQ(code.edges.size(), 6u);
  EXPECT_TRUE(ArePatternsIsomorphic(k4, PatternFromDfsCode(code)));
}

}  // namespace
}  // namespace spidermine
