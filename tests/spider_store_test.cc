#include "spider/spider_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/barabasi_albert.h"
#include "graph/graph_builder.h"
#include "spider/star_miner.h"
#include "spider_test_util.h"

namespace spidermine {
namespace {

TEST(SpiderStoreTest, EmptyStore) {
  SpiderStore store;
  EXPECT_EQ(store.size(), 0);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.TotalAnchors(), 0);
  EXPECT_TRUE(store.MaterializeAll().empty());
  // AppendPrefix of an empty store is a no-op.
  SpiderStore other;
  other.AppendPrefix(store, 10);
  EXPECT_TRUE(other.empty());
}

TEST(SpiderStoreTest, AppendAndReadBack) {
  SpiderStore store;
  std::vector<SpiderLeafKey> leaves{{0, 1}, {0, 1}, {2, 3}};
  std::vector<VertexId> anchors{4, 7, 9};
  int32_t id = store.Append(5, leaves, anchors);
  EXPECT_EQ(id, 0);
  EXPECT_EQ(store.size(), 1);
  EXPECT_EQ(store.head_label(0), 5);
  EXPECT_EQ(store.NumVerticesOf(0), 4);
  EXPECT_EQ(store.support(0), 3);
  EXPECT_TRUE(store.closed(0));
  std::span<const SpiderLeafKey> got = store.leaves(0);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[2], (SpiderLeafKey{2, 3}));
  EXPECT_TRUE(store.IsAnchoredAt(0, 7));
  EXPECT_FALSE(store.IsAnchoredAt(0, 5));
  store.set_closed(0, false);
  EXPECT_FALSE(store.closed(0));
  EXPECT_GT(store.HeapBytes(), 0);
}

TEST(SpiderStoreTest, PatternAndMaterializeRoundTrip) {
  SpiderStore store;
  std::vector<SpiderLeafKey> leaves{{0, 2}, {1, 3}};
  std::vector<VertexId> anchors{1, 6};
  store.Append(9, leaves, anchors);
  Pattern p = store.PatternOf(0);
  EXPECT_EQ(p.NumVertices(), 3);
  EXPECT_EQ(p.NumEdges(), 2);
  EXPECT_EQ(p.Label(0), 9);
  EXPECT_TRUE(p.HasEdge(0, 1));
  EXPECT_EQ(p.EdgeLabel(0, 2), 1);
  Spider s = store.Materialize(0);
  EXPECT_EQ(s.support, 2);
  EXPECT_EQ(s.anchors, anchors);
  EXPECT_EQ(s.LeafKeys(), leaves);
  EXPECT_TRUE(s.IsAnchoredAt(6));
}

TEST(SpiderStoreTest, FromSpidersRoundTrip) {
  SpiderStore store;
  store.Append(0, {}, std::vector<VertexId>{0, 1}, /*closed=*/false);
  store.Append(1, std::vector<SpiderLeafKey>{{0, 0}},
               std::vector<VertexId>{2, 3, 4});
  SpiderStore rebuilt = SpiderStore::FromSpiders(store.MaterializeAll());
  EXPECT_EQ(StoreTranscript(rebuilt), StoreTranscript(store));
}

TEST(SpiderStoreTest, AppendPrefixConcatenates) {
  SpiderStore a;
  a.Append(0, std::vector<SpiderLeafKey>{{0, 1}}, std::vector<VertexId>{0});
  SpiderStore b;
  b.Append(1, std::vector<SpiderLeafKey>{{0, 2}, {0, 2}},
           std::vector<VertexId>{3, 5}, /*closed=*/false);
  b.Append(2, {}, std::vector<VertexId>{7});
  a.AppendPrefix(b, 1);  // only b's first spider
  ASSERT_EQ(a.size(), 2);
  EXPECT_EQ(a.head_label(1), 1);
  EXPECT_EQ(a.support(1), 2);
  EXPECT_FALSE(a.closed(1));
  ASSERT_EQ(a.leaves(1).size(), 2u);
  EXPECT_EQ(a.leaves(1)[0], (SpiderLeafKey{0, 2}));
  EXPECT_TRUE(a.IsAnchoredAt(1, 5));
  // Count beyond other.size() is clamped.
  SpiderStore c;
  c.AppendPrefix(b, 99);
  EXPECT_EQ(c.size(), 2);
}

TEST(SpiderStoreTest, SingleLabelGraphMinesIntoStore) {
  // A triangle of one label: one frequent head label, hub-free.
  GraphBuilder builder;
  builder.AddVertices(3, 0);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(0, 2);
  LabeledGraph g = std::move(builder.Build()).value();
  StarMinerConfig config;
  config.min_support = 3;
  Result<StarMineResult> result = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(result.ok());
  const SpiderStore& store = result->store;
  // Stars: {}, {0}, {0,0} — all anchored at every vertex.
  ASSERT_EQ(store.size(), 3);
  for (int32_t id = 0; id < 3; ++id) {
    EXPECT_EQ(store.head_label(id), 0);
    EXPECT_EQ(store.support(id), 3);
  }
  EXPECT_EQ(store.NumVerticesOf(2), 3);
  // Sub-stars are non-closed (every extension keeps all three anchors).
  EXPECT_FALSE(store.closed(0));
  EXPECT_FALSE(store.closed(1));
  EXPECT_TRUE(store.closed(2));
}

TEST(SpiderStoreTest, HubHeavyScaleFreeGraphBudgetIsExactPrefix) {
  // BA graphs concentrate anchors on hubs; the global budget must still be
  // the exact canonical prefix, and the store must stay internally
  // consistent (sorted anchors, sorted leaves, star arity).
  Rng rng(11);
  GraphBuilder builder = GenerateBarabasiAlbert(600, 3, 6, &rng);
  LabeledGraph g = std::move(builder.Build()).value();
  StarMinerConfig config;
  config.min_support = 3;
  config.max_leaves = 4;
  Result<StarMineResult> full = MineStarSpiders(g, config, SerialPool());
  ASSERT_TRUE(full.ok());
  ASSERT_GT(full->store.size(), 50);
  for (int32_t id = 0; id < static_cast<int32_t>(full->store.size()); ++id) {
    std::span<const SpiderLeafKey> leaves = full->store.leaves(id);
    EXPECT_TRUE(std::is_sorted(leaves.begin(), leaves.end()));
    std::span<const VertexId> anchors = full->store.anchors(id);
    EXPECT_TRUE(std::is_sorted(anchors.begin(), anchors.end()));
    EXPECT_GE(full->store.support(id), config.min_support);
    EXPECT_LE(static_cast<int32_t>(leaves.size()), config.max_leaves);
  }
  const int64_t budget = full->store.size() / 3;
  config.max_spiders = budget;
  ThreadPool pool(4);
  Result<StarMineResult> capped = MineStarSpiders(g, config, pool);
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(capped->truncated);
  ASSERT_EQ(capped->store.size(), budget);
  for (int32_t id = 0; id < static_cast<int32_t>(budget); ++id) {
    EXPECT_EQ(capped->store.head_label(id), full->store.head_label(id));
    std::span<const SpiderLeafKey> a = capped->store.leaves(id);
    std::span<const SpiderLeafKey> b = full->store.leaves(id);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    std::span<const VertexId> aa = capped->store.anchors(id);
    std::span<const VertexId> bb = full->store.anchors(id);
    EXPECT_TRUE(std::equal(aa.begin(), aa.end(), bb.begin(), bb.end()));
  }
  // The budgeted store's arena is proportionally smaller — the O(B) bound.
  EXPECT_LT(capped->store.TotalAnchors(), full->store.TotalAnchors());
}

}  // namespace
}  // namespace spidermine
