#include "common/fnv1a.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/graph_builder.h"
#include "graph/graph_partition.h"
#include "pattern/dfs_code.h"
#include "pattern/pattern.h"
#include "spidermine/session.h"

/// The one FNV-1a helper, and the values of every hash built on it. The
/// pinned values below were recorded before the hashes moved onto the
/// helper; `graph_hash` is stored in every `.sm2`, `.sm2p` and `.smgp`
/// file and PatternIsoHash keys every dedup, so none of them may move.

namespace spidermine {
namespace {

TEST(Fnv1aTest, ByteFoldMatchesReferenceVectors) {
  // Published FNV-1a 64-bit test vectors.
  Fnv1a empty;
  EXPECT_EQ(empty.hash(), 0xcbf29ce484222325ULL);
  Fnv1a a;
  a.MixBytes("a", 1);
  EXPECT_EQ(a.hash(), 0xaf63dc4c8601ec8cULL);
  Fnv1a foobar;
  foobar.MixBytes("foobar", 6);
  EXPECT_EQ(foobar.hash(), 0x85944171f73967e8ULL);
}

TEST(Fnv1aTest, U64BytesFoldIsLittleEndianByteFold) {
  Fnv1a by_value, by_bytes;
  by_value.MixU64Bytes(0x0102030405060708ULL);
  const unsigned char le[8] = {8, 7, 6, 5, 4, 3, 2, 1};
  by_bytes.MixBytes(le, sizeof(le));
  EXPECT_EQ(by_value.hash(), by_bytes.hash());
}

TEST(Fnv1aTest, WordFoldIsOneStepPerWord) {
  Fnv1a fnv;
  fnv.MixWord(7);
  EXPECT_EQ(fnv.hash(), (Fnv1a::kOffsetBasis ^ 7) * Fnv1a::kPrime);
}

/// A fixed 6-vertex graph with one labeled edge.
LabeledGraph PinGraph() {
  GraphBuilder builder;
  for (LabelId label : {0, 1, 2, 1, 0, 2}) builder.AddVertex(label);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3, 4);
  builder.AddEdge(3, 4);
  builder.AddEdge(4, 5);
  builder.AddEdge(5, 0);
  builder.AddEdge(1, 4);
  return std::move(builder.Build()).value();
}

TEST(Fnv1aTest, StoredAndKeyedHashesKeepTheirValues) {
  const LabeledGraph graph = PinGraph();
  EXPECT_EQ(graph.ContentHash(), 1298449570371800382ULL);

  Result<PartitionPlan> plan = MakePartitionPlan(graph, 2, 1);
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<GraphPartition> part = BuildGraphPartition(graph, *plan, 1);
  ASSERT_TRUE(part.ok()) << part.status();
  EXPECT_EQ(part->ContentHash(), 6392403919049611722ULL);

  EXPECT_EQ(QueryConfig{}.CanonicalHash(2, 6), 15799852848280554916ULL);

  SessionConfig config;
  config.min_support = 2;
  config.num_threads = 1;
  Result<MiningSession> session = MiningSession::Create(&graph, config);
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_EQ(session->stage1_content_key(), 18346230898759898440ULL);

  // The transaction digest folds into the content key.
  const std::vector<int32_t> txn_of_vertex = {0, 0, 1, 1, 2, 2};
  config.txn_of_vertex = &txn_of_vertex;
  Result<MiningSession> txn_session = MiningSession::Create(&graph, config);
  ASSERT_TRUE(txn_session.ok()) << txn_session.status();
  EXPECT_EQ(txn_session->stage1_content_key(), 17576385643690679279ULL);
  // A txn map folds after the per-vertex ids.
  VertexTxnMap txn_map;
  txn_map.offsets = {0, 1, 3, 4, 4, 5, 6};
  txn_map.txn_ids = {0, 0, 1, 2, 1, 2};
  txn_map.num_transactions = 3;
  config.txn_map = &txn_map;
  Result<MiningSession> map_session = MiningSession::Create(&graph, config);
  ASSERT_TRUE(map_session.ok()) << map_session.status();
  EXPECT_EQ(map_session->stage1_content_key(), 8346258289442923590ULL);

  Pattern triangle;
  for (LabelId label : {3, 1, 1}) triangle.AddVertex(label);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2, 5);
  triangle.AddEdge(2, 0);
  EXPECT_EQ(PatternIsoHash(triangle), 7475125633988469543ULL);
  // An edge-unlabeled pattern, whose key skips the edge-label lookups:
  // a 4-cycle with a chord and a pendant, vertex labels repeated.
  Pattern unlabeled;
  for (LabelId label : {2, 7, 2, 7, 4}) unlabeled.AddVertex(label);
  unlabeled.AddEdge(0, 1);
  unlabeled.AddEdge(1, 2);
  unlabeled.AddEdge(2, 3);
  unlabeled.AddEdge(3, 0);
  unlabeled.AddEdge(0, 2);
  unlabeled.AddEdge(3, 4);
  EXPECT_EQ(PatternIsoHash(unlabeled), 17863358951152860707ULL);
}

}  // namespace
}  // namespace spidermine
