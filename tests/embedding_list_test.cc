#include "pattern/embedding_list.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "pattern/vf2.h"
#include "spider_test_util.h"
#include "spidermine/session.h"

/// The embedding-list engine's contract (pattern/embedding_list.h): an
/// unsaturated carried list is E[P] bit for bit — the same set a VF2 search
/// enumerates — at any budget, and a query served from carried lists
/// returns a byte-identical top-K to one forced onto the VF2 fallback.

namespace spidermine {
namespace {

LabeledGraph TestGraph(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder = GenerateErdosRenyi(200, 2.0, 14, &rng);
  Pattern planted = RandomConnectedPattern(10, 0.15, 14, &rng);
  PatternInjector injector(&builder);
  EXPECT_TRUE(injector.Inject(planted, 3, &rng).ok());
  return std::move(builder.Build()).value();
}

/// Canonically sorted copy — list builders and VF2 enumerate in different
/// orders, so set comparisons go through this.
std::vector<Embedding> Canonical(std::vector<Embedding> embeddings) {
  CanonicalizeEmbeddingOrder(&embeddings);
  return embeddings;
}

TEST(EmbeddingListTest, StarListsMatchVf2OnEverySpider) {
  LabeledGraph g = TestGraph(11);
  SessionConfig config;
  config.min_support = 3;
  Result<MiningSession> session = MiningSession::Create(&g, config);
  ASSERT_TRUE(session.ok()) << session.status();
  const SpiderStore& store = session->store();
  ASSERT_GT(store.size(), 0u);
  int32_t compared = 0;
  for (int32_t id = 0; id < static_cast<int32_t>(store.size()); ++id) {
    EmbeddingListRef list =
        BuildStarEmbeddingList(g, store, id, /*budget=*/1 << 20);
    ASSERT_NE(list, nullptr);
    if (list->saturated) continue;  // genuinely huge star; budget overflow
    Vf2Options options;
    options.max_embeddings = 1 << 20;
    std::vector<Embedding> expected =
        Canonical(FindEmbeddings(store.PatternOf(id), g, options));
    EXPECT_EQ(Canonical(list->embeddings), expected)
        << "spider " << id << " carried list != VF2 E[P]";
    ++compared;
  }
  EXPECT_GT(compared, 0);
}

/// Regression for the arrangement-vs-combination distinction: a star with
/// equal-key sibling leaves has every ORDERED assignment of images in its
/// E[P] (VF2 enumerates all of them); a combination enumeration would
/// silently emit each image set once.
TEST(EmbeddingListTest, EqualKeySiblingLeavesYieldAllArrangements) {
  GraphBuilder builder;
  const VertexId head = builder.AddVertex(0);
  for (int i = 0; i < 3; ++i) {
    builder.AddEdge(head, builder.AddVertex(1), 0);
  }
  LabeledGraph g = std::move(builder.Build()).value();
  SessionConfig config;
  config.min_support = 1;
  Result<MiningSession> session = MiningSession::Create(&g, config);
  ASSERT_TRUE(session.ok()) << session.status();
  const SpiderStore& store = session->store();
  const int32_t star2 = FindStar(store, /*head=*/0, {1, 1});
  ASSERT_GE(star2, 0) << "expected the 2-leaf star in the mined store";
  EmbeddingListRef list =
      BuildStarEmbeddingList(g, store, star2, /*budget=*/100);
  ASSERT_NE(list, nullptr);
  ASSERT_FALSE(list->saturated);
  // 3 choices for the first leaf times 2 for the second: 6 arrangements,
  // exactly what VF2 finds.
  EXPECT_EQ(list->embeddings.size(), 6u);
  Vf2Options options;
  std::vector<Embedding> expected =
      Canonical(FindEmbeddings(store.PatternOf(star2), g, options));
  EXPECT_EQ(Canonical(list->embeddings), expected);
}

/// The budget contract: a list within its budget is the exact full
/// enumeration, and one over it is saturated with its contents dropped —
/// including budgets one below and exactly at the true list size.
TEST(EmbeddingListTest, StarBuildHonorsBudget) {
  LabeledGraph g = TestGraph(23);
  SessionConfig config;
  config.min_support = 3;
  Result<MiningSession> session = MiningSession::Create(&g, config);
  ASSERT_TRUE(session.ok()) << session.status();
  const SpiderStore& store = session->store();
  ASSERT_GT(store.size(), 0u);
  const int32_t id = static_cast<int32_t>(store.size()) / 2;
  EmbeddingListRef full = BuildStarEmbeddingList(g, store, id, 1 << 20);
  ASSERT_NE(full, nullptr);
  ASSERT_FALSE(full->saturated);
  const int64_t size = static_cast<int64_t>(full->embeddings.size());
  ASSERT_GT(size, 1);
  for (int64_t budget : {int64_t{1} << 20, size, size - 1, int64_t{8},
                         int64_t{1}}) {
    EmbeddingListRef list = BuildStarEmbeddingList(g, store, id, budget);
    ASSERT_NE(list, nullptr);
    EXPECT_EQ(list->saturated, size > budget) << "budget=" << budget;
    if (list->saturated) {
      EXPECT_TRUE(list->embeddings.empty()) << "budget=" << budget;
    } else {
      EXPECT_EQ(list->embeddings, full->embeddings) << "budget=" << budget;
    }
  }
}

TopKQuery EngineQuery(int64_t embedding_list_budget) {
  TopKQuery query;
  query.k = 8;
  query.dmax = 4;
  query.vmin = 8;
  query.rng_seed = 7;
  query.seed_count_override = 10;
  query.embedding_list_budget = embedding_list_budget;
  return query;
}

/// The tentpole acceptance test: carried-list serving (any budget,
/// including one small enough to overflow mid-lineage) returns the same
/// bytes as forced-VF2 serving, at 1, 2 and 8 threads.
TEST(EmbeddingListTest, EngineAndVf2ModesReturnIdenticalTopK) {
  LabeledGraph g = TestGraph(11);
  std::string reference;
  for (int32_t threads : {1, 2, 8}) {
    SessionConfig config;
    config.min_support = 3;
    config.num_threads = threads;
    Result<MiningSession> session = MiningSession::Create(&g, config);
    ASSERT_TRUE(session.ok()) << session.status();
    for (int64_t budget : {int64_t{0}, int64_t{1}, int64_t{4096}}) {
      Result<QueryResult> result = session->RunQuery(EngineQuery(budget));
      ASSERT_TRUE(result.ok()) << result.status();
      ASSERT_FALSE(result->patterns.empty());
      const std::string transcript = PatternsTranscript(result->patterns);
      if (reference.empty()) {
        reference = transcript;
      } else {
        EXPECT_EQ(transcript, reference)
            << "budget=" << budget << " threads=" << threads;
      }
      // Counter invariants: the engine-off mode carries nothing; every
      // closure candidate is either carried or a fallback.
      if (budget == 0) {
        EXPECT_EQ(result->stats.emb_carried, 0);
        EXPECT_EQ(result->stats.emb_extensions, 0);
        EXPECT_GT(result->stats.vf2_fallbacks, 0);
      } else {
        EXPECT_GT(result->stats.emb_extensions, 0);
        EXPECT_GT(result->stats.emb_carried + result->stats.vf2_fallbacks, 0)
            << "closure ran but classified no candidate";
      }
    }
  }
}

/// Budget 1 saturates essentially every lineage mid-growth; the query must
/// degrade to VF2 fallbacks (counted), not to wrong answers.
TEST(EmbeddingListTest, OverflowMidLineageFallsBackToVf2) {
  LabeledGraph g = TestGraph(11);
  SessionConfig config;
  config.min_support = 3;
  Result<MiningSession> session = MiningSession::Create(&g, config);
  ASSERT_TRUE(session.ok()) << session.status();
  Result<QueryResult> tiny = session->RunQuery(EngineQuery(1));
  ASSERT_TRUE(tiny.ok()) << tiny.status();
  Result<QueryResult> off = session->RunQuery(EngineQuery(0));
  ASSERT_TRUE(off.ok()) << off.status();
  EXPECT_EQ(PatternsTranscript(tiny->patterns),
            PatternsTranscript(off->patterns));
  EXPECT_GT(tiny->stats.vf2_fallbacks, 0)
      << "a 1-embedding budget must overflow somewhere";
}

/// With a budget comfortably above every E[P] on this graph, closure never
/// re-runs VF2 — the counter CI smoke-tests against a served query.
TEST(EmbeddingListTest, AmpleBudgetEliminatesVf2Fallbacks) {
  LabeledGraph g = TestGraph(11);
  SessionConfig config;
  config.min_support = 3;
  Result<MiningSession> session = MiningSession::Create(&g, config);
  ASSERT_TRUE(session.ok()) << session.status();
  TopKQuery query = EngineQuery(1 << 20);
  query.max_embeddings_per_pattern = 1 << 20;
  Result<QueryResult> result = session->RunQuery(query);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->stats.emb_carried, 0);
  EXPECT_EQ(result->stats.vf2_fallbacks, 0);
}

TEST(EmbeddingListTest, NegativeBudgetRejected) {
  TopKQuery query = EngineQuery(-1);
  EXPECT_FALSE(query.Validate().ok());
}

}  // namespace
}  // namespace spidermine
