#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "occurrence_test_util.h"
#include "pattern/vf2.h"
#include "spider/spider_store.h"
#include "spidermine/session.h"

/// Closure's E[P] search starts at the anchors of the stored star around
/// the matching order's first vertex (StarRoots fed to
/// Vf2Options::start_roots) and scans that vertex's label when the star is
/// not stored. Exactness contract: the rooted search returns the label
/// scan's list element for element, in order, injective and homomorphic,
/// on edge-unlabeled and edge-labeled graphs, also under a max_embeddings
/// cut.

namespace spidermine {
namespace {

constexpr int64_t kCap = 4000;

/// A sparse random graph over few labels, so stars repeat and most label
/// vertices are not anchors of a given star.
LabeledGraph RandomGraph(uint64_t seed, bool edge_labels) {
  Rng rng(seed);
  GraphBuilder builder;
  constexpr int32_t kVertices = 160;
  for (int32_t v = 0; v < kVertices; ++v) {
    builder.AddVertex(static_cast<LabelId>(rng.UniformInt(0, 4)));
  }
  for (int32_t e = 0; e < 260; ++e) {
    const auto u = static_cast<VertexId>(rng.UniformInt(0, kVertices - 1));
    const auto v = static_cast<VertexId>(rng.UniformInt(0, kVertices - 1));
    builder.AddEdge(u, v,
                    edge_labels ? static_cast<EdgeLabelId>(rng.UniformInt(0, 2))
                                : 0);
  }
  return std::move(builder.Build()).value();
}

/// A connected pattern that occurs in \p g: a random BFS tree of up to
/// \p size vertices around a random vertex, plus some of the edges the
/// tree's vertices induce.
Pattern SampledPattern(const LabeledGraph& g, int32_t size, Rng* rng) {
  std::vector<VertexId> verts{
      static_cast<VertexId>(rng->UniformInt(0, g.NumVertices() - 1))};
  Pattern p;
  p.AddVertex(g.Label(verts[0]));
  for (size_t i = 0; i < verts.size() &&
                     static_cast<int32_t>(verts.size()) < size;
       ++i) {
    for (VertexId x : g.Neighbors(verts[i])) {
      if (static_cast<int32_t>(verts.size()) >= size) break;
      if (std::find(verts.begin(), verts.end(), x) != verts.end()) continue;
      if (rng->UniformInt(0, 2) == 0) continue;
      verts.push_back(x);
      p.AddEdge(static_cast<VertexId>(i), p.AddVertex(g.Label(x)),
                g.EdgeLabel(verts[i], x));
    }
  }
  for (size_t a = 0; a < verts.size(); ++a) {
    for (size_t b = a + 1; b < verts.size(); ++b) {
      if (g.HasEdge(verts[a], verts[b]) && rng->UniformInt(0, 1) == 0) {
        p.AddEdge(static_cast<VertexId>(a), static_cast<VertexId>(b),
                  g.EdgeLabel(verts[a], verts[b]));
      }
    }
  }
  return p;
}

/// How a rooted search found its start vertex's candidates.
struct RootUse {
  int32_t rooted = 0;
  int32_t scanned = 0;
};

Rows Search(const Pattern& p, const LabeledGraph& g,
            const SpiderStore* store, bool homomorphic,
            RootUse* use = nullptr) {
  Vf2Options options;
  options.max_embeddings = kCap;
  options.homomorphic = homomorphic;
  if (store != nullptr) {
    options.start_roots = [store, &p, homomorphic, use](VertexId v) {
      auto roots = StarRoots(*store, p, v, homomorphic);
      if (use != nullptr) ++(roots ? use->rooted : use->scanned);
      return roots;
    };
  }
  return RowsOf(FindEmbeddings(p, g, options));
}

/// Rooted search == label scan for \p p, both modes; accumulates use.
void ExpectRootedEqualsScan(const Pattern& p, const LabeledGraph& g,
                            const SpiderStore& store, RootUse* use) {
  for (bool homomorphic : {false, true}) {
    const Rows scan = Search(p, g, nullptr, homomorphic);
    EXPECT_EQ(Search(p, g, &store, homomorphic, use), scan)
        << (homomorphic ? "homomorphic " : "injective ") << p.ToString();
  }
}

MiningSession Session(const LabeledGraph* g, SessionConfig config) {
  Result<MiningSession> session = MiningSession::Create(g, config);
  EXPECT_TRUE(session.ok()) << session.status();
  return std::move(session).value();
}

TEST(RootedClosureTest, FindLocatesEveryStoredStar) {
  for (bool edge_labels : {false, true}) {
    LabeledGraph g = RandomGraph(5, edge_labels);
    MiningSession session = Session(&g, SessionConfig{});
    const SpiderStore& store = session.store();
    ASSERT_GT(store.size(), 10);
    for (int32_t id = 0; id < static_cast<int32_t>(store.size()); ++id) {
      EXPECT_EQ(store.Find(store.head_label(id), store.leaves(id)), id);
      // One more leaf under a label the graph lacks is never stored.
      std::vector<SpiderLeafKey> absent(store.leaves(id).begin(),
                                        store.leaves(id).end());
      absent.emplace_back(0, g.NumLabels());
      EXPECT_EQ(store.Find(store.head_label(id), absent), -1);
    }
    EXPECT_EQ(store.Find(g.NumLabels(), {}), -1);
  }
}

class RootedClosureModes : public ::testing::TestWithParam<bool> {};

TEST_P(RootedClosureModes, StoredStarsAndSampledPatternsMatchTheScan) {
  const bool edge_labels = GetParam();
  LabeledGraph g = RandomGraph(edge_labels ? 17 : 3, edge_labels);
  MiningSession session = Session(&g, SessionConfig{});
  const SpiderStore& store = session.store();
  RootUse use;
  for (int32_t id = 0; id < static_cast<int32_t>(store.size()); ++id) {
    ExpectRootedEqualsScan(store.PatternOf(id), g, store, &use);
  }
  Rng rng(edge_labels ? 29 : 31);
  for (int32_t i = 0; i < 150; ++i) {
    const auto size = static_cast<int32_t>(rng.UniformInt(1, 7));
    ExpectRootedEqualsScan(SampledPattern(g, size, &rng), g, store, &use);
  }
  // Both sources ran: rare stars fall below the support floor.
  EXPECT_GT(use.rooted, 0);
  EXPECT_GT(use.scanned, 0);
}

INSTANTIATE_TEST_SUITE_P(EdgeLabels, RootedClosureModes,
                         ::testing::Values(false, true));

/// A start vertex with more pattern neighbours than max_star_leaves has no
/// stored star; the search scans its label and still finds every
/// embedding.
TEST(RootedClosureTest, StarAboveMaxLeavesFallsBackToScan) {
  // Three hubs of label 0, each with two leaves of every label 1..4, and
  // one hub-labeled vertex that anchors nothing.
  GraphBuilder builder;
  for (int32_t hub = 0; hub < 3; ++hub) {
    const VertexId head = builder.AddVertex(0);
    for (LabelId label = 1; label <= 4; ++label) {
      builder.AddEdge(head, builder.AddVertex(label));
      builder.AddEdge(head, builder.AddVertex(label));
    }
  }
  builder.AddVertex(0);
  LabeledGraph g = std::move(builder.Build()).value();
  SessionConfig config;
  config.max_star_leaves = 2;
  MiningSession session = Session(&g, config);
  // Four distinct leaf keys: above the cap in both modes.
  Pattern star(0);
  for (LabelId label = 1; label <= 4; ++label) {
    star.AddEdge(0, star.AddVertex(label));
  }
  EXPECT_FALSE(StarRoots(session.store(), star, 0, false).has_value());
  EXPECT_FALSE(StarRoots(session.store(), star, 0, true).has_value());
  RootUse use;
  ExpectRootedEqualsScan(star, g, session.store(), &use);
  // Label 0 is the rarest, so the head starts both searches.
  EXPECT_EQ(use.rooted, 0);
  EXPECT_EQ(use.scanned, 2);
  EXPECT_EQ(Search(star, g, &session.store(), false).size(), 3u * 16u);
}

/// A max_spiders-truncated store lacks most stars: those searches scan,
/// the stars it kept still root, and every list matches the scan.
TEST(RootedClosureTest, TruncatedStoreFallsBackToScan) {
  LabeledGraph g = RandomGraph(41, /*edge_labels=*/false);
  SessionConfig config;
  config.max_spiders = 12;
  MiningSession session = Session(&g, config);
  ASSERT_TRUE(session.stage1_truncated());
  ASSERT_EQ(session.store().size(), 12);
  RootUse use;
  Rng rng(43);
  for (int32_t i = 0; i < 120; ++i) {
    const auto size = static_cast<int32_t>(rng.UniformInt(1, 6));
    ExpectRootedEqualsScan(SampledPattern(g, size, &rng), g, session.store(),
                           &use);
  }
  EXPECT_GT(use.rooted, 0);
  EXPECT_GT(use.scanned, 0);
}

/// The patterns a query returns, searched the way closure searches them.
TEST(RootedClosureTest, ServedPatternsMatchTheScan) {
  Rng rng(11);
  GraphBuilder builder = GenerateErdosRenyi(200, 2.0, 14, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(
      injector.Inject(RandomConnectedPattern(10, 0.15, 14, &rng), 3, &rng)
          .ok());
  LabeledGraph g = std::move(builder.Build()).value();
  SessionConfig config;
  config.min_support = 3;
  config.num_threads = 4;  // closure searches run on pool workers
  MiningSession session = Session(&g, config);
  for (SupportMeasureKind measure : {SupportMeasureKind::kGreedyMisVertex,
                                     SupportMeasureKind::kHomomorphism}) {
    TopKQuery query;
    query.k = 8;
    query.dmax = 4;
    query.vmin = 8;
    query.rng_seed = 7;
    query.seed_count_override = 10;
    query.support_measure = measure;
    Result<QueryResult> result = session.RunQuery(query);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_FALSE(result->patterns.empty());
    EXPECT_GT(result->stats.closure_rooted, 0);
    RootUse use;
    for (const MinedPattern& mp : result->patterns) {
      ExpectRootedEqualsScan(mp.pattern, g, session.store(), &use);
    }
    EXPECT_GT(use.rooted, 0);
  }
}

}  // namespace
}  // namespace spidermine
