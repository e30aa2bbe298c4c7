#include "spider/star_miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>

#include "graph/graph_builder.h"
#include "spider_test_util.h"

namespace spidermine {
namespace {

/// Two identical stars: center label 0 with leaves {1, 1, 2}; plus an
/// isolated label-3 vertex pair.
LabeledGraph TwoStars() {
  GraphBuilder b;
  // Star 1: center 0, leaves 1(1), 2(1), 3(2).
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  // Star 2: center 4, leaves 5(1), 6(1), 7(2).
  b.AddVertex(0);
  b.AddVertex(1);
  b.AddVertex(1);
  b.AddVertex(2);
  b.AddEdge(4, 5);
  b.AddEdge(4, 6);
  b.AddEdge(4, 7);
  // Frequent label 3 singletons.
  b.AddVertex(3);
  b.AddVertex(3);
  return std::move(b.Build()).value();
}

TEST(StarMinerTest, FindsAllFrequentStars) {
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 2;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  // Expected frequent stars with head 0 (anchors: vertices 0 and 4):
  // {}, {1}, {2}, {1,1}, {1,2}, {1,1,2}.
  EXPECT_NE(FindStar(result->store, 0, {}), -1);
  EXPECT_NE(FindStar(result->store, 0, {1}), -1);
  EXPECT_NE(FindStar(result->store, 0, {2}), -1);
  EXPECT_NE(FindStar(result->store, 0, {1, 1}), -1);
  EXPECT_NE(FindStar(result->store, 0, {1, 2}), -1);
  EXPECT_NE(FindStar(result->store, 0, {1, 1, 2}), -1);
  // Leaves of label 1 anchor stars with head 1 and leaf 0.
  EXPECT_NE(FindStar(result->store, 1, {0}), -1);
  // Isolated label-3 vertices are single-vertex spiders only.
  int32_t singleton3 = FindStar(result->store, 3, {});
  ASSERT_NE(singleton3, -1);
  EXPECT_EQ(result->store.support(singleton3), 2);
}

TEST(StarMinerTest, AnchorListsAreCorrect) {
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 2;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  int32_t full = FindStar(result->store, 0, {1, 1, 2});
  ASSERT_NE(full, -1);
  const SpiderStore& store = result->store;
  std::span<const VertexId> anchors = store.anchors(full);
  EXPECT_EQ((std::vector<VertexId>(anchors.begin(), anchors.end())),
            (std::vector<VertexId>{0, 4}));
  EXPECT_EQ(store.support(full), 2);
  EXPECT_TRUE(store.IsAnchoredAt(full, 0));
  EXPECT_TRUE(store.IsAnchoredAt(full, 4));
  EXPECT_FALSE(store.IsAnchoredAt(full, 1));
}

TEST(StarMinerTest, InfrequentStarsExcluded) {
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 3;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  // Only heads with >= 3 anchors survive: label 1 has 4 vertices.
  EXPECT_EQ(FindStar(result->store, 0, {}), -1);
  EXPECT_NE(FindStar(result->store, 1, {}), -1);
}

TEST(StarMinerTest, ClosedFlagMarksMaximalStars) {
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 2;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  // {1} extends to {1,1} keeping both anchors => non-closed.
  int32_t sub = FindStar(result->store, 0, {1});
  ASSERT_NE(sub, -1);
  EXPECT_FALSE(result->store.closed(sub));
  // The maximal star is closed.
  int32_t full = FindStar(result->store, 0, {1, 1, 2});
  ASSERT_NE(full, -1);
  EXPECT_TRUE(result->store.closed(full));
}

TEST(StarMinerTest, MaxLeavesBoundsSize) {
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 2;
  config.max_leaves = 1;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  for (int32_t id = 0; id < static_cast<int32_t>(result->store.size());
       ++id) {
    EXPECT_LE(result->store.NumVerticesOf(id), 2);
  }
  EXPECT_EQ(FindStar(result->store, 0, {1, 1}), -1);
}

TEST(StarMinerTest, MaxSpidersTruncates) {
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 2;
  config.max_spiders = 3;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->truncated);
  EXPECT_EQ(result->store.size(), 3);
}

TEST(StarMinerTest, InvalidConfigRejected) {
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 0;
  EXPECT_FALSE(MineStarSpiders(g, config, SerialPool()).ok());
  config.min_support = 2;
  config.max_leaves = -1;
  EXPECT_FALSE(MineStarSpiders(g, config, SerialPool()).ok());
}

TEST(StarMinerTest, StarPatternStructureIsStar) {
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 2;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  for (const Spider& s : result->Spiders()) {
    EXPECT_EQ(s.radius, 1);
    EXPECT_EQ(s.pattern.NumEdges(), s.pattern.NumVertices() - 1);
    for (VertexId v = 1; v < s.pattern.NumVertices(); ++v) {
      EXPECT_EQ(s.pattern.Degree(v), 1);
      EXPECT_TRUE(s.pattern.HasEdge(0, v));
    }
  }
}

TEST(StarMinerTest, MaxSpidersIsExactGlobalPrefix) {
  // The global budget must return the exact prefix of the unlimited
  // enumeration in canonical order -- not a per-label truncation.
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 2;
  Result<StarMineResult> full = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(full.ok());
  const int64_t total = full->store.size();
  ASSERT_GT(total, 4);
  for (int64_t budget = 1; budget <= total; ++budget) {
    config.max_spiders = budget;
    Result<StarMineResult> capped = MineStarSpiders(g, config, SerialPool());
    ASSERT_TRUE(capped.ok());
    ASSERT_EQ(capped->store.size(), budget);
    // Closed flags of the last admitted spiders may differ (their closing
    // children can fall beyond the budget), so compare structure + anchors
    // field by field rather than the flag-bearing transcript.
    for (int32_t id = 0; id < static_cast<int32_t>(budget); ++id) {
      EXPECT_EQ(capped->store.head_label(id), full->store.head_label(id));
      std::span<const SpiderLeafKey> a = capped->store.leaves(id);
      std::span<const SpiderLeafKey> b = full->store.leaves(id);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
      std::span<const VertexId> aa = capped->store.anchors(id);
      std::span<const VertexId> bb = full->store.anchors(id);
      EXPECT_TRUE(std::equal(aa.begin(), aa.end(), bb.begin(), bb.end()));
    }
    EXPECT_EQ(capped->truncated, budget < total);
  }
}

TEST(StarMinerTest, ExactBudgetInOneShardIsNotTruncated) {
  // Two disjoint label-0 edges: exactly two frequent spiders, the root
  // ({0}, no leaf) and the star ({0}, leaf 0), which is the only spider of
  // its single enumeration shard. A budget equal to the full enumeration
  // must not report truncation even though that shard holds the whole
  // budget the root leaves.
  GraphBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex(0);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  LabeledGraph g = std::move(b.Build()).value();
  StarMinerConfig config;
  config.min_support = 2;
  Result<StarMineResult> full = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full->store.size(), 2);
  EXPECT_EQ(full->store.NumVerticesOf(0), 1);
  config.max_spiders = 2;
  Result<StarMineResult> capped = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(capped.ok());
  EXPECT_EQ(capped->store.size(), 2);
  EXPECT_FALSE(capped->truncated);
}

TEST(StarMinerTest, NonBindingBudgetKeepsAttemptsComparable) {
  // A budget the enumeration fits inside exactly must yield the same set
  // AND the same work counter as the unbudgeted run (the counting pass's
  // attempts, not the prefix-stopped emission pass's).
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 2;
  Result<StarMineResult> unbudgeted = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(unbudgeted.ok());
  config.max_spiders = unbudgeted->store.size();
  Result<StarMineResult> budgeted = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(budgeted.ok());
  EXPECT_FALSE(budgeted->truncated);
  EXPECT_EQ(budgeted->store.size(), unbudgeted->store.size());
  EXPECT_EQ(budgeted->extension_attempts, unbudgeted->extension_attempts);
}

TEST(StarMinerTest, ShardGrainDoesNotChangeResult) {
  LabeledGraph g = TwoStars();
  StarMinerConfig config;
  config.min_support = 2;
  Result<StarMineResult> reference = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(reference.ok());
  const std::string expected = StoreTranscript(reference->store);
  ThreadPool pool(4);
  for (int64_t grain : {int64_t{1}, int64_t{2}, int64_t{1} << 20}) {
    config.shard_grain = grain;
    Result<StarMineResult> run = MineStarSpiders(g, config, pool);
    ASSERT_TRUE(run.ok());
    EXPECT_EQ(StoreTranscript(run->store), expected)
        << "diverged at shard_grain=" << grain;
    EXPECT_EQ(run->extension_attempts, reference->extension_attempts);
  }
}

TEST(StarMinerTest, EmptyGraphYieldsNothing) {
  GraphBuilder b;
  LabeledGraph g = std::move(b.Build()).value();
  Result<StarMineResult> result = MineStarSpiders(g, {}, SerialPool());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->store.empty());
}

}  // namespace
}  // namespace spidermine
