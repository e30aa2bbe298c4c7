#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/ball_miner.h"
#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "pattern/dfs_code.h"
#include "pattern/vf2.h"
#include "spider/star_miner.h"
#include "support/support_measure.h"
#include "spider_test_util.h"

namespace spidermine {
namespace {

/// Property sweep over random seeds: each TEST_P instance draws a fresh
/// random scenario and asserts an algebraic invariant of the library.
class RandomScenario : public ::testing::TestWithParam<uint64_t> {
 protected:
  Rng rng_{GetParam() * 1000003ULL + 17};
};

// ---- Invariant 1: canonical code equality <=> isomorphism. ----
TEST_P(RandomScenario, CanonicalCodeAgreesWithVf2Isomorphism) {
  Pattern a = RandomConnectedPattern(
      static_cast<int32_t>(rng_.UniformInt(2, 9)), 0.35,
      static_cast<LabelId>(rng_.UniformInt(1, 3)), &rng_);
  Pattern b = RandomConnectedPattern(
      static_cast<int32_t>(rng_.UniformInt(2, 9)), 0.35,
      static_cast<LabelId>(rng_.UniformInt(1, 3)), &rng_);
  bool same_code = DfsCodeToString(MinimumDfsCode(a)) ==
                   DfsCodeToString(MinimumDfsCode(b));
  bool isomorphic = ArePatternsIsomorphic(a, b);
  EXPECT_EQ(same_code, isomorphic)
      << "a=" << a.ToString() << " b=" << b.ToString();
}

// ---- Invariant 2: every embedding VF2 returns is label- and
// edge-preserving and injective. ----
TEST_P(RandomScenario, EmbeddingsAreValid) {
  LabeledGraph g = std::move(
      GenerateErdosRenyi(60, 3.0, static_cast<LabelId>(rng_.UniformInt(2, 5)),
                         &rng_)
          .Build())
          .value();
  Pattern p = RandomConnectedPattern(
      static_cast<int32_t>(rng_.UniformInt(2, 4)), 0.2, g.NumLabels(), &rng_);
  Vf2Options options;
  options.max_embeddings = 200;
  for (OccurrenceList::Row e : FindEmbeddings(p, g, options)) {
    std::vector<VertexId> image = SortedImage(e);
    EXPECT_EQ(std::adjacent_find(image.begin(), image.end()), image.end());
    for (VertexId pv = 0; pv < p.NumVertices(); ++pv) {
      EXPECT_EQ(g.Label(e[pv]), p.Label(pv));
    }
    for (const auto& [u, v] : p.Edges()) {
      EXPECT_TRUE(g.HasEdge(e[u], e[v]));
    }
  }
}

// ---- Invariant 3: star-miner anchors really anchor embeddings, and
// support is anti-monotone along the star lattice. ----
TEST_P(RandomScenario, StarSupportIsAntiMonotone) {
  LabeledGraph g = std::move(
      GenerateErdosRenyi(80, 4.0, 4, &rng_).Build())
          .value();
  StarMinerConfig config;
  config.min_support = 2;
  config.max_leaves = 4;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  const std::vector<Spider> spiders = result->Spiders();
  // Index stars by (head, leaves) for sub-star lookup.
  for (const Spider& s : spiders) {
    std::vector<LabelId> leaves = s.LeafLabels();
    if (leaves.empty()) continue;
    // Dropping the last leaf gives a sub-star that must also be frequent
    // with support >= the super-star's.
    std::vector<LabelId> sub(leaves.begin(), leaves.end() - 1);
    bool found = false;
    for (const Spider& t : spiders) {
      if (t.pattern.Label(0) == s.pattern.Label(0) &&
          t.LeafLabels() == sub) {
        EXPECT_GE(t.support, s.support);
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "sub-star missing from mined set";
  }
}

// ---- Invariant 4: anchors of mined stars admit anchored embeddings. ----
TEST_P(RandomScenario, StarAnchorsAdmitEmbeddings) {
  LabeledGraph g = std::move(
      GenerateErdosRenyi(50, 3.0, 3, &rng_).Build())
          .value();
  StarMinerConfig config;
  config.min_support = 2;
  config.max_leaves = 3;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  int32_t checked = 0;
  for (const Spider& s : result->Spiders()) {
    if (s.pattern.NumVertices() < 2 || checked >= 5) continue;
    ++checked;
    for (size_t i = 0; i < std::min<size_t>(s.anchors.size(), 3); ++i) {
      Vf2Options options;
      options.anchor_pattern_vertex = 0;
      options.anchor_graph_vertex = s.anchors[i];
      options.max_embeddings = 1;
      EXPECT_FALSE(FindEmbeddings(s.pattern, g, options).empty())
          << "anchor " << s.anchors[i] << " of " << s.pattern.ToString();
    }
  }
}

// ---- Invariant 5: ball spiders are r-bounded from the head. ----
TEST_P(RandomScenario, BallSpidersAreRBounded) {
  LabeledGraph g = std::move(
      GenerateErdosRenyi(40, 2.5, 3, &rng_).Build())
          .value();
  for (int32_t r = 1; r <= 2; ++r) {
    BallMinerConfig config;
    config.min_support = 2;
    config.radius = r;
    config.max_spiders = 400;
    Result<BallMineResult> result = MineBallSpiders(g, config);
    ASSERT_TRUE(result.ok());
    for (const Spider& s : result->spiders) {
      EXPECT_TRUE(s.pattern.IsRBoundedFrom(0, r))
          << "r=" << r << " spider " << s.pattern.ToString();
    }
  }
}

// ---- Invariant 6: greedy MIS supports never exceed embedding count and
// respect the conflict hierarchy. ----
TEST_P(RandomScenario, SupportMeasureHierarchy) {
  LabeledGraph g = std::move(
      GenerateErdosRenyi(60, 3.0, 3, &rng_).Build())
          .value();
  Pattern p = RandomConnectedPattern(3, 0.0, 3, &rng_);
  Vf2Options options;
  options.max_embeddings = 300;
  OccurrenceList embeddings = FindEmbeddings(p, g, options);
  DedupEmbeddingsByImage(&embeddings);
  int64_t count =
      ComputeSupport(SupportMeasureKind::kEmbeddingCount, p, embeddings);
  int64_t mis_v =
      ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p, embeddings);
  int64_t mis_e =
      ComputeSupport(SupportMeasureKind::kGreedyMisEdge, p, embeddings);
  int64_t mni = ComputeSupport(SupportMeasureKind::kMinImage, p, embeddings);
  EXPECT_LE(mis_v, count);
  EXPECT_LE(mis_e, count);
  EXPECT_LE(mni, count);
  if (count > 0) {
    EXPECT_GE(mis_v, 1);
    EXPECT_GE(mni, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomScenario,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace spidermine
