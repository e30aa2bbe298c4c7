#include "spidermine/growth.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "spider/star_miner.h"
#include "spider_test_util.h"

namespace spidermine {
namespace {

/// Two disjoint copies of the labeled path 0-1-2-3-4 (labels = positions).
LabeledGraph TwoPaths() {
  GraphBuilder b;
  for (int copy = 0; copy < 2; ++copy) {
    VertexId base = b.AddVertex(0);
    for (LabelId l = 1; l <= 4; ++l) b.AddVertex(l);
    for (int i = 0; i < 4; ++i) b.AddEdge(base + i, base + i + 1);
  }
  return std::move(b.Build()).value();
}

/// The same two labeled paths, but the second copy's graph ids run in
/// DESCENDING label order, so a union built in sorted-graph-id order
/// numbers the two copies differently.
LabeledGraph TwoPathsOppositeIdOrder() {
  GraphBuilder b;
  VertexId base = b.AddVertex(0);
  for (LabelId l = 1; l <= 4; ++l) b.AddVertex(l);
  for (int i = 0; i < 4; ++i) b.AddEdge(base + i, base + i + 1);
  base = b.AddVertex(4);  // ids base..base+4 hold labels 4..0
  for (LabelId l = 3; l >= 0; --l) b.AddVertex(l);
  for (int i = 0; i < 4; ++i) b.AddEdge(base + i, base + i + 1);
  return std::move(b.Build()).value();
}

/// Empty when \p e maps \p p into \p g injectively, preserving vertex
/// labels, edges and edge labels; otherwise what is wrong.
std::string EmbeddingError(const Pattern& p, std::span<const VertexId> e,
                           const LabeledGraph& g) {
  if (static_cast<int32_t>(e.size()) != p.NumVertices()) return "size";
  std::vector<VertexId> image(e.begin(), e.end());
  std::sort(image.begin(), image.end());
  if (std::adjacent_find(image.begin(), image.end()) != image.end()) {
    return "not injective";
  }
  for (VertexId v = 0; v < p.NumVertices(); ++v) {
    if (g.Label(e[v]) != p.Label(v)) return StrCat("label of vertex ", v);
  }
  for (const auto& edge : p.LabeledEdges()) {
    if (!g.HasEdge(e[edge.u], e[edge.v]) ||
        g.EdgeLabel(e[edge.u], e[edge.v]) != edge.label) {
      return StrCat("edge ", edge.u, "-", edge.v);
    }
  }
  return "";
}

/// Checks every embedding of every pattern; returns how many it checked.
int64_t ExpectValidEmbeddings(const std::vector<GrowthPattern>& patterns,
                              const LabeledGraph& g) {
  int64_t checked = 0;
  for (const GrowthPattern& gp : patterns) {
    for (OccurrenceList::Row e : gp.embeddings) {
      const std::string error = EmbeddingError(gp.pattern, e, g);
      EXPECT_EQ(error, "") << "pattern " << gp.id
                           << (gp.merged_ever ? " (merge product) " : " ")
                           << gp.pattern.ToString();
      ++checked;
    }
  }
  return checked;
}

struct Fixture {
  LabeledGraph graph;
  StarMineResult stars;
  SessionConfig session_config;
  QueryConfig query_config;
  MineStats stats;
  CancellationToken token;
  std::unique_ptr<SpiderIndex> index;
  std::unique_ptr<GrowthEngine> engine;

  explicit Fixture(LabeledGraph g, int64_t support = 2,
                   ThreadPool& pool = SerialPool())
      : graph(std::move(g)) {
    StarMinerConfig star_config;
    star_config.min_support = support;
    stars =
        std::move(MineStarSpiders(graph, star_config, SerialPool())).value();
    session_config.min_support = support;
    query_config.min_support = support;  // engines take a resolved threshold
    index = std::make_unique<SpiderIndex>(&stars.store,
                                          graph.NumVertices());
    engine = std::make_unique<GrowthEngine>(&graph, index.get(),
                                            &session_config, &query_config,
                                            &stats, pool, token);
  }

  /// Store id of the star (head, leaf-label multiset), or -1 when absent.
  int32_t FindStar(LabelId head, std::vector<LabelId> leaves) const {
    return spidermine::FindStar(stars.store, head, std::move(leaves));
  }
};

TEST(GrowthTest, SeedPatternsBuildsAnchoredEmbeddings) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(1, {0, 2});
  ASSERT_NE(s, -1);
  GrowthPattern seed = f.engine->SeedPatterns({s})[0];
  EXPECT_EQ(seed.pattern.NumVertices(), 3);
  ASSERT_EQ(seed.embeddings.size(), 2u);  // one per path copy
  EXPECT_EQ(seed.support, 2);
  // Boundary = the leaves.
  EXPECT_EQ(seed.boundary, (std::vector<VertexId>{1, 2}));
  for (OccurrenceList::Row e : seed.embeddings) {
    // Head image has label 1.
    EXPECT_EQ(f.graph.Label(e[0]), 1);
  }
}

TEST(GrowthTest, SeedFromSingleVertexSpiderHasHeadBoundary) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(2, {});
  ASSERT_NE(s, -1);
  GrowthPattern seed = f.engine->SeedPatterns({s})[0];
  EXPECT_EQ(seed.pattern.NumVertices(), 1);
  EXPECT_EQ(seed.boundary, (std::vector<VertexId>{0}));
  EXPECT_EQ(seed.embeddings.size(), 2u);
}

TEST(GrowthTest, GrowRoundExtendsPatternOutward) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(1, {0, 2});
  ASSERT_NE(s, -1);
  std::vector<GrowthPattern> working = f.engine->SeedPatterns({s});
  MergeRegistry previous;
  GrowRoundResult round = f.engine->GrowRound(std::move(working), previous);
  EXPECT_TRUE(round.any_growth);
  // Some output pattern must now contain label 3 (grown through vertex 2).
  bool grew_to_3 = false;
  for (const GrowthPattern& gp : round.patterns) {
    for (VertexId v = 0; v < gp.pattern.NumVertices(); ++v) {
      if (gp.pattern.Label(v) == 3) grew_to_3 = true;
    }
    EXPECT_GE(gp.support, 2);
  }
  EXPECT_TRUE(grew_to_3);
}

TEST(GrowthTest, RepeatedRoundsReachFullPath) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(2, {1, 3});
  ASSERT_NE(s, -1);
  std::vector<GrowthPattern> working = f.engine->SeedPatterns({s});
  MergeRegistry previous;
  for (int round = 0; round < 3; ++round) {
    GrowRoundResult r = f.engine->GrowRound(std::move(working), previous);
    working = std::move(r.patterns);
  }
  int32_t best_vertices = 0;
  for (const GrowthPattern& gp : working) {
    best_vertices = std::max(best_vertices, gp.pattern.NumVertices());
  }
  EXPECT_EQ(best_vertices, 5) << "growth should recover the full path";
}

TEST(GrowthTest, NonClosedSubPatternsAreDropped) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(2, {1, 3});
  ASSERT_NE(s, -1);
  std::vector<GrowthPattern> working = f.engine->SeedPatterns({s});
  MergeRegistry previous;
  GrowRoundResult r = f.engine->GrowRound(std::move(working), previous);
  // The seed extends to label 0 and 4 keeping support 2, so the partial
  // patterns (including the seed itself) must have been dropped as
  // non-closed: every surviving pattern contains labels 0 and 4.
  EXPECT_GT(f.stats.nonclosed_dropped, 0);
  for (const GrowthPattern& gp : r.patterns) {
    std::vector<LabelId> labels = gp.pattern.SortedLabels();
    EXPECT_TRUE(std::binary_search(labels.begin(), labels.end(), 0))
        << gp.pattern.ToString();
    EXPECT_TRUE(std::binary_search(labels.begin(), labels.end(), 4))
        << gp.pattern.ToString();
  }
}

TEST(GrowthTest, MergeDetectedWhenSeedsCollide) {
  Fixture f(TwoPaths());
  // Two seeds growing toward each other along the path.
  int32_t left = f.FindStar(1, {0, 2});
  int32_t right = f.FindStar(3, {2, 4});
  ASSERT_NE(left, -1);
  ASSERT_NE(right, -1);
  std::vector<GrowthPattern> working = f.engine->SeedPatterns({left, right});
  MergeRegistry previous;
  GrowRoundResult r = f.engine->GrowRound(std::move(working), previous);
  EXPECT_GT(f.stats.merges, 0) << "colliding growth must trigger CheckMerge";
  bool merged_full_path = false;
  for (const GrowthPattern& gp : r.patterns) {
    if (gp.merged_ever && gp.pattern.NumVertices() == 5) {
      merged_full_path = true;
      EXPECT_GE(gp.support, 2);
    }
  }
  EXPECT_TRUE(merged_full_path);
}

TEST(GrowthTest, ExhaustedFlagSetAtFixpoint) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(2, {1, 3});
  ASSERT_NE(s, -1);
  std::vector<GrowthPattern> working = f.engine->SeedPatterns({s});
  MergeRegistry previous;
  for (int round = 0; round < 4; ++round) {
    GrowRoundResult r = f.engine->GrowRound(std::move(working), previous);
    working = std::move(r.patterns);
  }
  for (const GrowthPattern& gp : working) {
    if (gp.pattern.NumVertices() == 5) {
      EXPECT_TRUE(gp.exhausted) << "full path cannot grow further";
    }
  }
}

/// Two overlaps of the same shape whose graph ids run in opposite orders
/// join one union group, and both enter it in the group pattern's vertex
/// numbering (not each in its own sorted-graph-id numbering).
TEST(GrowthTest, SameShapeUnionsShareOneGroupNumbering) {
  Fixture f(TwoPathsOppositeIdOrder());
  int32_t left = f.FindStar(1, {0, 2});
  int32_t right = f.FindStar(3, {2, 4});
  ASSERT_NE(left, -1);
  ASSERT_NE(right, -1);
  std::vector<GrowthPattern> working = f.engine->SeedPatterns({left, right});
  MergeRegistry previous;
  GrowRoundResult r = f.engine->GrowRound(std::move(working), previous);
  ASSERT_GT(f.stats.merges, 0);
  int32_t full_paths = 0;
  for (const GrowthPattern& gp : r.patterns) {
    if (!gp.merged_ever || gp.pattern.NumVertices() != 5) continue;
    ++full_paths;
    // One embedding per path copy, both valid in the group's numbering.
    ASSERT_EQ(gp.embeddings.size(), 2u) << gp.pattern.ToString();
    EXPECT_NE(gp.embeddings[0][0] / 5, gp.embeddings[1][0] / 5);
    EXPECT_EQ(gp.support, 2);
  }
  EXPECT_EQ(full_paths, 1);
  EXPECT_GT(ExpectValidEmbeddings(r.patterns, f.graph), 0);
}

/// The occurrence-list invariant TryExtend relies on (e[v] is the image of
/// pattern vertex v): after every round of a merge-heavy run, including
/// merge products and patterns that absorbed folded duplicates, every
/// embedding maps its pattern's labels and edges into the graph.
TEST(GrowthTest, EmbeddingsStayValidThroughMergesAndFolds) {
  Rng rng(4242);
  GraphBuilder builder = GenerateErdosRenyi(220, 2.0, 10, &rng);
  Pattern planted = RandomConnectedPattern(12, 0.15, 10, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 4, &rng).ok());
  const LabeledGraph graph = std::move(builder.Build()).value();

  // The same run on a one-thread pool (every loop inline) and on a
  // four-thread pool must agree round for round: ids, patterns, supports,
  // occurrence rows and every counter.
  ThreadPool four(4);
  std::string transcripts[2];
  ThreadPool* pools[2] = {&SerialPool(), &four};
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(StrCat(pools[run]->num_threads(), " thread(s)"));
    Fixture f(graph, /*support=*/3, *pools[run]);
    f.query_config.max_patterns_per_round = 600;
    f.query_config.max_embeddings_per_pattern = 1000;
    f.query_config.max_merge_pairs_per_key = 32;

    std::vector<int32_t> picks;
    Rng pick_rng(7);
    for (size_t pick : pick_rng.SampleWithoutReplacement(
             static_cast<size_t>(f.stars.store.size()), 24)) {
      picks.push_back(static_cast<int32_t>(pick));
    }
    std::vector<GrowthPattern> working = f.engine->SeedPatterns(picks);
    ExpectValidEmbeddings(working, f.graph);
    MergeRegistry previous;
    int64_t checked = 0;
    std::string& transcript = transcripts[run];
    for (int round = 0; round < 4 && !working.empty(); ++round) {
      GrowRoundResult r = f.engine->GrowRound(std::move(working), previous);
      checked += ExpectValidEmbeddings(r.patterns, f.graph);
      transcript += StrCat("round ", round, "\n");
      for (const GrowthPattern& gp : r.patterns) {
        transcript += StrCat(gp.id, " sup=", gp.support, " ",
                             gp.pattern.ToString(), "\n");
        for (OccurrenceList::Row e : gp.embeddings) {
          for (VertexId v : e) transcript += StrCat(" ", v);
          transcript += "\n";
        }
      }
      working = std::move(r.patterns);
    }
    transcript += f.stats.ToJson();
    EXPECT_GT(f.stats.merges, 0) << "the merge pass must be exercised";
    EXPECT_GT(checked, 0);
  }
  EXPECT_EQ(transcripts[0], transcripts[1]);
}

/// Round inputs whose ids do not ascend with their position, as the
/// session's no-merge fallback leaves them (it re-sorts the survivors by
/// size): the merge pass resolves registry ids to pool entries by id, so
/// the buckets, the pairs and the merges must not depend on input order.
TEST(GrowthTest, MergesResolveIdsThatDoNotAscend) {
  Rng rng(4242);
  GraphBuilder builder = GenerateErdosRenyi(220, 2.0, 10, &rng);
  Pattern planted = RandomConnectedPattern(12, 0.15, 10, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 4, &rng).ok());
  Fixture f(std::move(builder.Build()).value(), /*support=*/3);
  f.query_config.max_patterns_per_round = 600;
  f.query_config.max_embeddings_per_pattern = 1000;
  f.query_config.max_merge_pairs_per_key = 32;

  std::vector<int32_t> picks;
  Rng pick_rng(7);
  for (size_t pick : pick_rng.SampleWithoutReplacement(
           static_cast<size_t>(f.stars.store.size()), 24)) {
    picks.push_back(static_cast<int32_t>(pick));
  }
  std::vector<GrowthPattern> working = f.engine->SeedPatterns(picks);
  MergeRegistry previous;
  for (int round = 0; round < 2; ++round) {
    std::stable_sort(working.begin(), working.end(),
                     [](const GrowthPattern& a, const GrowthPattern& b) {
                       return a.pattern.NumEdges() > b.pattern.NumEdges();
                     });
    ASSERT_FALSE(std::is_sorted(working.begin(), working.end(),
                                [](const GrowthPattern& a,
                                   const GrowthPattern& b) {
                                  return a.id < b.id;
                                }))
        << "round " << round << " input ids already ascend";
    GrowRoundResult r = f.engine->GrowRound(std::move(working), previous);
    EXPECT_GT(ExpectValidEmbeddings(r.patterns, f.graph), 0);
    working = std::move(r.patterns);
  }
  EXPECT_GT(f.stats.merges, 0);
  // Pinned: the bucket and pair order decide these, so a change to how
  // registry ids are resolved must leave them as they are.
  EXPECT_EQ(f.stats.merges, 14);
  EXPECT_EQ(f.stats.merge_attempts, 272);
}

TEST(GrowthTest, SupportRecomputationMatchesMeasure) {
  Fixture f(TwoPaths());
  int32_t s = f.FindStar(1, {0, 2});
  ASSERT_NE(s, -1);
  GrowthPattern seed = f.engine->SeedPatterns({s})[0];
  EXPECT_EQ(f.engine->Support(seed), seed.support);
}

}  // namespace
}  // namespace spidermine
