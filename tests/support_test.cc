#include "support/support_measure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <set>

#include "common/rng.h"
#include "graph/graph_builder.h"
#include "occurrence_test_util.h"
#include "spidermine/txn_adapter.h"

namespace spidermine {
namespace {

Pattern EdgePattern() {
  Pattern p;
  p.AddVertex(0);
  p.AddVertex(0);
  p.AddEdge(0, 1);
  return p;
}

TEST(SupportTest, EmbeddingCountIsSize) {
  Pattern p = EdgePattern();
  OccurrenceList embeddings = ListOf({{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kEmbeddingCount, p, embeddings),
            3);
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kEmbeddingCount, p,
                           OccurrenceList(2)),
            0);
}

TEST(SupportTest, MinImageTakesMinimumOverVertices) {
  Pattern p = EdgePattern();
  // Vertex 0 images: {0, 0, 0} -> 1 distinct; vertex 1 images: {1, 2, 3}.
  OccurrenceList embeddings = ListOf({{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kMinImage, p, embeddings), 1);
  // Balanced images.
  OccurrenceList balanced = ListOf({{0, 1}, {2, 3}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kMinImage, p, balanced), 2);
}

TEST(SupportTest, GreedyMisVertexCountsDisjointEmbeddings) {
  Pattern p = EdgePattern();
  // {0,1} and {1,2} overlap; {3,4} disjoint.
  OccurrenceList embeddings = ListOf({{0, 1}, {1, 2}, {3, 4}});
  EXPECT_EQ(
      ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p, embeddings), 2);
}

TEST(SupportTest, GreedyMisVertexChainOverlap) {
  Pattern p = EdgePattern();
  // A path of overlapping edges: greedy picks 0-1, skips 1-2, picks 2-3...
  OccurrenceList embeddings = ListOf({{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  EXPECT_EQ(
      ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p, embeddings), 3);
}

TEST(SupportTest, GreedyMisEdgeAllowsVertexSharing) {
  Pattern p = EdgePattern();
  // Star at 0: edges 0-1, 0-2, 0-3 share vertex 0 but no edge.
  OccurrenceList embeddings = ListOf({{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kGreedyMisEdge, p, embeddings),
            3);
  EXPECT_EQ(
      ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p, embeddings), 1);
}

TEST(SupportTest, GreedyMisEdgeDetectsSharedEdges) {
  // Two-edge path pattern: embeddings share the middle edge.
  Pattern p;
  p.AddVertex(0);
  p.AddVertex(0);
  p.AddVertex(0);
  p.AddEdge(0, 1);
  p.AddEdge(1, 2);
  OccurrenceList embeddings = ListOf({{0, 1, 2}, {2, 1, 0}, {3, 4, 5}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kGreedyMisEdge, p, embeddings),
            2);
}

TEST(SupportTest, GreedyMisEdgeOnEdgelessPatternFallsBack) {
  Pattern p(0);
  OccurrenceList embeddings = ListOf({{0}, {1}, {1}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kGreedyMisEdge, p, embeddings),
            2);
}

TEST(SupportTest, TransactionSupportCountsDistinctTransactions) {
  Pattern p = EdgePattern();
  std::vector<int32_t> txn{0, 0, 1, 1, 2, 2};
  SupportContext ctx;
  ctx.txn_of_vertex = &txn;
  OccurrenceList embeddings = ListOf({{0, 1}, {2, 3}, {2, 3}, {4, 5}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kTransaction, p, embeddings,
                           ctx),
            3);
}

TEST(SupportTest, TransactionSupportWithoutContextIsZero) {
  Pattern p = EdgePattern();
  OccurrenceList embeddings = ListOf({{0, 1}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kTransaction, p, embeddings),
            0);
}

TEST(SupportTest, MeasureNamesAreStable) {
  EXPECT_EQ(SupportMeasureName(SupportMeasureKind::kEmbeddingCount),
            "embedding-count");
  EXPECT_EQ(SupportMeasureName(SupportMeasureKind::kMinImage), "min-image");
  EXPECT_EQ(SupportMeasureName(SupportMeasureKind::kGreedyMisVertex),
            "greedy-mis-vertex");
  EXPECT_EQ(SupportMeasureName(SupportMeasureKind::kGreedyMisEdge),
            "greedy-mis-edge");
  EXPECT_EQ(SupportMeasureName(SupportMeasureKind::kTransaction),
            "transaction");
  EXPECT_EQ(SupportMeasureName(SupportMeasureKind::kHomomorphism),
            "homomorphism");
}

TEST(SupportTest, HomomorphismIsMinImageOverTheGivenList) {
  Pattern p = EdgePattern();
  // On whatever list it is handed, the measure is the minimum-image count;
  // the homomorphism semantics come from the list being homomorphic E[P].
  OccurrenceList embeddings = ListOf({{0, 1}, {0, 2}, {0, 3}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kHomomorphism, p, embeddings),
            ComputeSupport(SupportMeasureKind::kMinImage, p, embeddings));
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kHomomorphism, p,
                           OccurrenceList(2)),
            0);
}

/// CSR map for 4 vertices: v0 -> {0, 1}, v1 -> {0}, v2 -> {1}, v3 -> {}.
VertexTxnMap SmallTxnMap() {
  VertexTxnMap map;
  map.offsets = {0, 2, 3, 4, 4};
  map.txn_ids = {0, 1, 0, 1};
  map.num_transactions = 2;
  return map;
}

TEST(SupportTest, VertexTxnMapSpansAreSortedPerVertex) {
  VertexTxnMap map = SmallTxnMap();
  EXPECT_EQ(map.NumVertices(), 4);
  ASSERT_EQ(map.TxnsOf(0).size(), 2u);
  EXPECT_EQ(map.TxnsOf(0)[0], 0);
  EXPECT_EQ(map.TxnsOf(0)[1], 1);
  EXPECT_TRUE(map.TxnsOf(3).empty());
}

TEST(SupportTest, TransactionSupportWithMapIntersectsImageVertices) {
  Pattern p = EdgePattern();
  VertexTxnMap map = SmallTxnMap();
  SupportContext ctx;
  ctx.txn_map = &map;
  // {0,1}: txns(0) = {0,1}, txns(1) = {0} -> covers {0}.
  // {0,2}: {0,1} & {1} -> covers {1}. Together: 2 transactions.
  OccurrenceList both = ListOf({{0, 1}, {0, 2}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kTransaction, p, both, ctx), 2);
  // {1,2}: {0} & {1} -> empty; a vertex with no payload covers nothing.
  OccurrenceList none = ListOf({{1, 2}, {0, 3}});
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kTransaction, p, none, ctx), 0);
}

TEST(SupportTest, TransactionMapTakesPrecedenceOverTxnOfVertex) {
  Pattern p = EdgePattern();
  VertexTxnMap map = SmallTxnMap();
  std::vector<int32_t> txn{5, 5, 5, 5};
  SupportContext ctx;
  ctx.txn_of_vertex = &txn;
  ctx.txn_map = &map;
  OccurrenceList embeddings = ListOf({{0, 1}});
  // The map says {0}; the legacy vector would say {5}.
  EXPECT_EQ(
      ComputeSupport(SupportMeasureKind::kTransaction, p, embeddings, ctx), 1);
}

TEST(SupportTest, TransactionSampleFiltersBothSources) {
  Pattern p = EdgePattern();
  std::vector<int32_t> sample{1};  // sorted whitelist: only transaction 1
  // Legacy disjoint-union source.
  std::vector<int32_t> txn{0, 0, 1, 1, 2, 2};
  SupportContext legacy;
  legacy.txn_of_vertex = &txn;
  legacy.txn_sample = &sample;
  OccurrenceList embeddings = ListOf({{0, 1}, {2, 3}, {4, 5}});
  EXPECT_EQ(
      ComputeSupport(SupportMeasureKind::kTransaction, p, embeddings, legacy),
      1);
  // Per-vertex payload source.
  VertexTxnMap map = SmallTxnMap();
  SupportContext payload;
  payload.txn_map = &map;
  payload.txn_sample = &sample;
  OccurrenceList both = ListOf({{0, 1}, {0, 2}});  // covers {0} and {1}
  EXPECT_EQ(ComputeSupport(SupportMeasureKind::kTransaction, p, both, payload),
            1);
}

/// A 4-vertex path graph with one label, split into two 2-vertex
/// transactions, as the smallest MineTransactions input.
Result<TransactionGraph> TinyTransactionGraph() {
  GraphBuilder builder;
  std::vector<LabeledGraph> database;
  for (int t = 0; t < 2; ++t) {
    GraphBuilder b;
    b.AddVertex(0);
    b.AddVertex(0);
    b.AddEdge(0, 1);
    SM_ASSIGN_OR_RETURN(LabeledGraph g, b.Build());
    database.push_back(std::move(g));
  }
  return BuildTransactionGraph(database);
}

TEST(TxnAdapterTest, MineTransactionsRejectsConflictingMeasure) {
  Result<TransactionGraph> txn = TinyTransactionGraph();
  ASSERT_TRUE(txn.ok());
  SessionConfig config;
  TopKQuery query;
  config.min_support = 1;
  query.vmin = 1;
  query.support_measure = SupportMeasureKind::kMinImage;
  Result<QueryResult> result = MineTransactions(*txn, config, query);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("transaction measure"),
            std::string::npos)
      << result.status().ToString();
}

TEST(TxnAdapterTest, MineTransactionsRejectsForeignTxnMap) {
  Result<TransactionGraph> txn = TinyTransactionGraph();
  ASSERT_TRUE(txn.ok());
  std::vector<int32_t> foreign(static_cast<size_t>(txn->graph.NumVertices()),
                               0);
  SessionConfig config;
  TopKQuery query;
  config.min_support = 1;
  query.vmin = 1;
  config.txn_of_vertex = &foreign;
  Result<QueryResult> result = MineTransactions(*txn, config, query);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("different transaction map"),
            std::string::npos)
      << result.status().ToString();
}

TEST(TxnAdapterTest, MineTransactionsAcceptsDefaultAndExplicitMeasure) {
  Result<TransactionGraph> txn = TinyTransactionGraph();
  ASSERT_TRUE(txn.ok());
  SessionConfig config;
  TopKQuery query;
  config.min_support = 1;
  query.vmin = 1;
  ASSERT_TRUE(MineTransactions(*txn, config, query).ok());  // struct default
  query.support_measure = SupportMeasureKind::kTransaction;
  config.txn_of_vertex = &txn->txn_of_vertex;  // the graph's own map is fine
  ASSERT_TRUE(MineTransactions(*txn, config, query).ok());
}

TEST(TxnAdapterTest, LoadVertexTxnMapParsesAndValidates) {
  const std::string path = ::testing::TempDir() + "/txn_map_test.txt";
  {
    std::ofstream out(path);
    out << "# comment line\n"
        << "0 0\n"
        << "0 1\n"
        << "\n"
        << "2 1\n"
        << "0 1\n";  // duplicate collapses
  }
  Result<VertexTxnMap> map = LoadVertexTxnMap(path, 4);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  EXPECT_EQ(map->num_transactions, 2);
  ASSERT_EQ(map->NumVertices(), 4);
  EXPECT_EQ(map->TxnsOf(0).size(), 2u);
  EXPECT_EQ(map->TxnsOf(1).size(), 0u);
  EXPECT_EQ(map->TxnsOf(2).size(), 1u);
  EXPECT_EQ(map->TxnsOf(2)[0], 1);
  // Out-of-range vertex fails with the line number.
  {
    std::ofstream out(path);
    out << "9 0\n";
  }
  Result<VertexTxnMap> bad = LoadVertexTxnMap(path, 4);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 1"), std::string::npos);
  EXPECT_FALSE(LoadVertexTxnMap("/nonexistent/txn.map", 4).ok());
}

TEST(DedupEmbeddingsTest, RemovesSameImageDifferentOrder) {
  OccurrenceList embeddings = ListOf({{0, 1}, {1, 0}, {2, 3}});
  DedupEmbeddingsByImage(&embeddings);
  EXPECT_EQ(RowsOf(embeddings), (Rows{{0, 1}, {2, 3}}));
}

TEST(DedupEmbeddingsTest, KeepsDistinctImages) {
  OccurrenceList embeddings = ListOf({{0, 1}, {0, 2}, {1, 2}});
  DedupEmbeddingsByImage(&embeddings);
  EXPECT_EQ(embeddings.size(), 3u);
}

TEST(DedupEmbeddingsTest, EmptyListNoop) {
  OccurrenceList embeddings(2);
  DedupEmbeddingsByImage(&embeddings);
  EXPECT_TRUE(embeddings.empty());
}

/// The first row per sorted image, in order: DedupEmbeddingsByImage's
/// contract, by comparing every row with every kept row.
Rows DedupReference(const Rows& rows) {
  Rows kept;
  for (const std::vector<VertexId>& e : rows) {
    const std::vector<VertexId> image = SortedImage(e);
    if (std::none_of(kept.begin(), kept.end(),
                     [&image](const std::vector<VertexId>& k) {
                       return SortedImage(k) == image;
                     })) {
      kept.push_back(e);
    }
  }
  return kept;
}

int64_t MisVertexReference(const Rows& rows) {
  std::set<VertexId> used;
  int64_t count = 0;
  for (const std::vector<VertexId>& e : rows) {
    if (std::any_of(e.begin(), e.end(),
                    [&used](VertexId v) { return used.count(v) > 0; })) {
      continue;
    }
    used.insert(e.begin(), e.end());
    ++count;
  }
  return count;
}

int64_t MinImageReference(int32_t width, const Rows& rows) {
  if (rows.empty()) return 0;
  int64_t min_images = INT64_MAX;
  for (int32_t pv = 0; pv < width; ++pv) {
    std::set<VertexId> images;
    for (const std::vector<VertexId>& e : rows) images.insert(e[pv]);
    min_images = std::min(min_images, static_cast<int64_t>(images.size()));
  }
  return min_images;
}

/// A random row stream: rows of \p width distinct vertices below
/// \p num_vertices, and permuted copies of earlier rows.
Rows RandomRows(Rng* rng, int32_t width, int32_t num_vertices,
                int32_t count) {
  Rows rows;
  while (static_cast<int32_t>(rows.size()) < count) {
    if (!rows.empty() && rng->Bernoulli(0.4)) {
      std::vector<VertexId> copy = rows[rng->Index(rows.size())];
      rng->Shuffle(&copy);
      rows.push_back(std::move(copy));
      continue;
    }
    std::set<VertexId> picked;
    std::vector<VertexId> row;
    while (static_cast<int32_t>(row.size()) < width) {
      const auto v =
          static_cast<VertexId>(rng->UniformInt(0, num_vertices - 1));
      if (picked.insert(v).second) row.push_back(v);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// Dedup and the two stamped-scratch folds against set-based references.
// Trials alternate small and large lists, vertex ranges and widths, so
// each call starts from scratch another call left behind.
TEST(DedupEmbeddingsTest, MatchesReferencesOnRandomRowStreams) {
  Rng rng(8);
  for (int trial = 0; trial < 200; ++trial) {
    const auto width = static_cast<int32_t>(rng.UniformInt(1, 7));
    const int32_t num_vertices =
        trial % 3 == 0
            ? 100000
            : static_cast<int32_t>(width + rng.UniformInt(0, 30));
    const auto count = static_cast<int32_t>(rng.UniformInt(0, 300));
    const Rows rows = RandomRows(&rng, width, num_vertices, count);
    OccurrenceList list = ListOf(rows, width);
    Pattern p;
    for (int32_t i = 0; i < width; ++i) p.AddVertex(0);
    for (int32_t i = 1; i < width; ++i) p.AddEdge(i - 1, i);
    for (const auto kind :
         {SupportMeasureKind::kGreedyMisVertex, SupportMeasureKind::kMinImage,
          SupportMeasureKind::kHomomorphism}) {
      const int64_t expected = kind == SupportMeasureKind::kGreedyMisVertex
                                   ? MisVertexReference(rows)
                                   : MinImageReference(width, rows);
      EXPECT_EQ(ComputeSupport(kind, p, list), expected)
          << SupportMeasureName(kind) << " on raw rows, trial " << trial;
    }
    const Rows expected = DedupReference(rows);
    DedupEmbeddingsByImage(&list);
    ASSERT_EQ(RowsOf(list), expected) << "trial " << trial;
    EXPECT_EQ(ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p, list),
              MisVertexReference(expected));
    EXPECT_EQ(ComputeSupport(SupportMeasureKind::kMinImage, p, list),
              MinImageReference(width, expected));
  }
}

/// Growth's duplicate fold before flat occurrence lists, kept as the
/// reference: append the renumbered rows while the list (raw appends
/// included) is below the cap, then re-dedup the whole list. Returns how
/// many rows it appended.
int64_t ReferenceFold(Rows* list, const Rows& rows,
                      const std::vector<VertexId>& iso, int64_t max_rows) {
  int64_t appended = 0;
  for (const std::vector<VertexId>& e : rows) {
    if (static_cast<int64_t>(list->size()) >= max_rows) break;
    std::vector<VertexId> renumbered(iso.size());
    for (size_t u = 0; u < iso.size(); ++u) renumbered[u] = e[iso[u]];
    list->push_back(std::move(renumbered));
    ++appended;
  }
  *list = DedupReference(*list);
  return appended;
}

// Batches of folds into one target through one OccurrenceFolder, against
// the append-then-dedup reference: the kept rows, how many rows each fold
// offered (its cap hit), and every measure's support must match. The
// batches mix fresh rows, permuted copies and copies of the target's rows,
// at caps below, at and above the list sizes.
TEST(OccurrenceFolderTest, MatchesAppendThenDedupOnRandomBatches) {
  Rng rng(31);
  for (int trial = 0; trial < 200; ++trial) {
    const auto width = static_cast<int32_t>(rng.UniformInt(1, 6));
    const int32_t num_vertices =
        trial % 4 == 0 ? 100000
                       : static_cast<int32_t>(width + rng.UniformInt(0, 20));
    const Rows start =
        DedupReference(RandomRows(&rng, width, num_vertices,
                                  static_cast<int32_t>(rng.UniformInt(0, 60))));
    const std::array<int64_t, 5> caps{
        1, static_cast<int64_t>(start.size()),
        static_cast<int64_t>(start.size()) + 7, 40, 10000};
    const int64_t cap = caps[rng.Index(caps.size())];
    Rows reference = start;
    OccurrenceList list = ListOf(start, width);
    OccurrenceFolder folder(&list);
    const auto folds = static_cast<int>(rng.UniformInt(1, 5));
    for (int f = 0; f < folds; ++f) {
      Rows rows = RandomRows(&rng, width, num_vertices,
                             static_cast<int32_t>(rng.UniformInt(0, 50)));
      for (const std::vector<VertexId>& e : start) {
        if (rng.Bernoulli(0.2)) {
          std::vector<VertexId> copy = e;
          rng.Shuffle(&copy);
          rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(
                                         rng.Index(rows.size() + 1)),
                      std::move(copy));
        }
      }
      std::vector<VertexId> iso(static_cast<size_t>(width));
      for (int32_t u = 0; u < width; ++u) iso[u] = u;
      rng.Shuffle(&iso);
      const int64_t expected_offered =
          ReferenceFold(&reference, rows, iso, cap);
      EXPECT_EQ(folder.Fold(ListOf(rows, width), iso, cap), expected_offered)
          << "trial " << trial << " fold " << f;
      ASSERT_EQ(RowsOf(list), reference)
          << "trial " << trial << " fold " << f;
    }
    Pattern p;
    for (int32_t i = 0; i < width; ++i) p.AddVertex(0);
    for (int32_t i = 1; i < width; ++i) p.AddEdge(i - 1, i);
    std::vector<int32_t> txn_of_vertex(static_cast<size_t>(num_vertices));
    for (int32_t v = 0; v < num_vertices; ++v) txn_of_vertex[v] = v % 7;
    SupportContext context;
    context.txn_of_vertex = &txn_of_vertex;
    const OccurrenceList reference_list = ListOf(reference, width);
    for (const auto kind :
         {SupportMeasureKind::kEmbeddingCount, SupportMeasureKind::kMinImage,
          SupportMeasureKind::kGreedyMisVertex,
          SupportMeasureKind::kGreedyMisEdge, SupportMeasureKind::kTransaction,
          SupportMeasureKind::kHomomorphism}) {
      EXPECT_EQ(ComputeSupport(kind, p, list, context),
                ComputeSupport(kind, p, reference_list, context))
          << SupportMeasureName(kind) << ", trial " << trial;
    }
  }
}

TEST(SupportTest, MisMeasuresAreUpperBoundedByEmbeddingCount) {
  Pattern p = EdgePattern();
  OccurrenceList embeddings = ListOf({{0, 1}, {2, 3}, {4, 5}, {0, 5}});
  int64_t count =
      ComputeSupport(SupportMeasureKind::kEmbeddingCount, p, embeddings);
  EXPECT_LE(
      ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p, embeddings),
      count);
  EXPECT_LE(ComputeSupport(SupportMeasureKind::kGreedyMisEdge, p, embeddings),
            count);
  // Vertex conflicts are a superset of edge conflicts.
  EXPECT_LE(
      ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p, embeddings),
      ComputeSupport(SupportMeasureKind::kGreedyMisEdge, p, embeddings));
}

}  // namespace
}  // namespace spidermine
