#include <gtest/gtest.h>

#include "common/rng.h"
#include "gen/pattern_factory.h"
#include "pattern/dfs_code.h"
#include "pattern/vf2.h"

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

/// A big single-label pattern: triggers the symmetry gate in
/// CanonicalString (distinct (label, degree) signatures * 3 < n).
Pattern BigSymmetricPattern(int32_t n) {
  Pattern p;
  for (int32_t i = 0; i < n; ++i) p.AddVertex(0);
  for (int32_t i = 0; i < n; ++i) p.AddEdge(i, (i + 1) % n);  // cycle
  return p;
}

TEST(CanonicalFallbackTest, SymmetricPatternsUseWlKey) {
  Pattern cycle = BigSymmetricPattern(20);
  std::string key = CanonicalString(cycle);
  EXPECT_EQ(key.rfind("wl:", 0), 0u) << key;
}

TEST(CanonicalFallbackTest, DiversePatternsUseExactKey) {
  Pattern p;
  for (int i = 0; i < 16; ++i) p.AddVertex(i);  // all labels distinct
  for (int i = 0; i + 1 < 16; ++i) p.AddEdge(i, i + 1);
  std::string key = CanonicalString(p);
  EXPECT_NE(key.rfind("r", 0), std::string::npos);
  EXPECT_NE(key.substr(0, 3), "wl:");
}

TEST(CanonicalFallbackTest, WlKeyIsPermutationInvariant) {
  Rng rng(5);
  Pattern p = BigSymmetricPattern(24);
  std::string key = CanonicalString(p);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<VertexId> perm(p.NumVertices());
    for (VertexId v = 0; v < p.NumVertices(); ++v) perm[v] = v;
    rng.Shuffle(&perm);
    EXPECT_EQ(CanonicalString(Permuted(p, perm)), key);
  }
}

TEST(CanonicalFallbackTest, WlStringDistinguishesCycleLengths) {
  // WL separates cycles of different length (different n already).
  EXPECT_NE(WlRefinementString(BigSymmetricPattern(20)),
            WlRefinementString(BigSymmetricPattern(22)));
}

TEST(CanonicalFallbackTest, WlStringSeparatesTreesExactly) {
  // WL refinement is a complete invariant on trees: star vs path, same
  // label multiset and sizes.
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

TEST(CanonicalFallbackTest, WlEqualForIsomorphicPairs) {
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

TEST(CanonicalFallbackTest, BoundedSearchReportsExhaustion) {
  // A moderately symmetric pattern with a 1-step budget must give up.
  Pattern p = BigSymmetricPattern(10);
  DfsCode code;
  EXPECT_FALSE(MinimumDfsCodeBounded(p, 1, &code));
  // And with an ample budget it succeeds and matches the unbounded result.
  DfsCode full;
  EXPECT_TRUE(MinimumDfsCodeBounded(p, INT64_MAX, &full));
  EXPECT_EQ(CompareDfsCodes(full, MinimumDfsCode(p)), 0);
}

TEST(CanonicalFallbackTest, CanonicalStringStillExactForSmallDense) {
  // n <= 12 always takes the exact path, even fully symmetric.
  Pattern k4;
  for (int i = 0; i < 4; ++i) k4.AddVertex(0);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) k4.AddEdge(i, j);
  }
  std::string key = CanonicalString(k4);
  EXPECT_EQ(key.substr(0, 1), "r");
}

}  // namespace
}  // namespace spidermine
