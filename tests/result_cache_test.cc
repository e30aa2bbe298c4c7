#include "spidermine/result_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/strings.h"
#include "spidermine/session.h"
#include "tools/serve_loop.h"
#include "serve_test_util.h"

/// The deterministic result cache: a hit replays byte-for-byte what a
/// recomputation would produce (the engine's determinism contract makes
/// that exact, not approximate), LRU eviction is a deterministic function
/// of the access sequence, keys isolate Stage I artifacts from each
/// other, and a 0-capacity cache is completely inert.

namespace spidermine::cli {
namespace {

std::vector<std::string> NormalizedResponses(const std::string& text) {
  std::vector<std::string> lines;
  for (std::string line : Split(text, '\n')) {
    if (line.empty()) continue;
    const size_t begin = line.find("\"seconds\":");
    const size_t end = line.find(",\"timed_out\"");
    if (begin != std::string::npos && end != std::string::npos) {
      line.replace(begin, end - begin, "\"seconds\":X");
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

ResultCache::Key Key(uint64_t query_hash, uint64_t stage1_key) {
  ResultCache::Key key;
  key.query_hash = query_hash;
  key.stage1_key = stage1_key;
  return key;
}

TEST(ResultCacheTest, HitReplaysRecomputationByteForByte) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok()) << session.status();
  ResultCache cache(ResultCacheConfig{});

  // The same request stream through the server twice, sharing one
  // cache and one session. Run 2 is answered entirely from the cache:
  // responses are byte-identical (modulo the "seconds" timing) and
  // RunQuery is bypassed — queries_run does not advance.
  const std::string requests =
      "{\"id\": 1, \"k\": 3, \"seed\": 2, \"vmin\": 8, \"seed_count\": 10}\n"
      "{\"id\": 2, \"k\": 2, \"seed\": 5, \"vmin\": 8, \"seed_count\": 10}\n";
  auto run = [&] {
    std::ostringstream err;
    ServeOptions options;
    options.max_inflight = 2;
    options.summary = false;
    options.cache = &cache;
    ServeStats stats;
    StreamServeResult served =
        ServeStream(*session, requests, options, err, &stats);
    EXPECT_TRUE(served.status.ok()) << served.status;
    EXPECT_EQ(stats.answered, 2);
    std::vector<std::string> lines = NormalizedResponses(served.out);
    std::sort(lines.begin(), lines.end());
    return lines;
  };

  std::vector<std::string> cold = run();
  EXPECT_EQ(session->queries_run(), 2);
  EXPECT_EQ(cache.stats().misses, 2);
  EXPECT_EQ(cache.stats().insertions, 2);

  std::vector<std::string> warm = run();
  EXPECT_EQ(cold, warm);
  EXPECT_EQ(session->queries_run(), 2);  // both hits bypassed RunQuery
  EXPECT_EQ(cache.stats().hits, 2);
}

TEST(ResultCacheTest, LruEvictionIsDeterministic) {
  ResultCacheConfig config;
  config.max_entries = 3;
  config.max_bytes = 1024;
  ResultCache cache(config);
  const uint64_t artifact = 42;

  cache.Insert(Key(1, artifact), "one");
  cache.Insert(Key(2, artifact), "two");
  cache.Insert(Key(3, artifact), "three");
  // Touch 1 so 2 becomes the least recently used, then overflow: 2 (and
  // only 2) must be the victim.
  EXPECT_TRUE(cache.Lookup(Key(1, artifact)).has_value());
  cache.Insert(Key(4, artifact), "four");
  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_FALSE(cache.Lookup(Key(2, artifact)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(1, artifact)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(3, artifact)).has_value());
  EXPECT_TRUE(cache.Lookup(Key(4, artifact)).has_value());
  EXPECT_EQ(cache.stats().entries, 3);

  // The byte cap evicts from the LRU tail until it holds, regardless of
  // the entry cap; the sequence is fully determined by the access order.
  ResultCacheConfig tight;
  tight.max_entries = 100;
  tight.max_bytes = 10;
  ResultCache small(tight);
  small.Insert(Key(1, artifact), "aaaa");  // 4 bytes
  small.Insert(Key(2, artifact), "bbbb");  // 8 bytes resident
  small.Insert(Key(3, artifact), "cccc");  // 12 > 10: evicts 1
  EXPECT_EQ(small.stats().evictions, 1);
  EXPECT_FALSE(small.Lookup(Key(1, artifact)).has_value());
  EXPECT_TRUE(small.Lookup(Key(2, artifact)).has_value());
  EXPECT_EQ(small.stats().bytes, 8);

  // A payload that could never fit is not cached (and evicts nothing).
  small.Insert(Key(9, artifact), std::string(64, 'x'));
  EXPECT_FALSE(small.Lookup(Key(9, artifact)).has_value());
  EXPECT_EQ(small.stats().entries, 2);
}

TEST(ResultCacheTest, KeysIsolateStage1Artifacts) {
  // Unit level: the same query hash under two artifact keys never aliases.
  ResultCache cache(ResultCacheConfig{});
  cache.Insert(Key(7, 1), "artifact-one");
  EXPECT_FALSE(cache.Lookup(Key(7, 2)).has_value());
  ASSERT_TRUE(cache.Lookup(Key(7, 1)).has_value());
  EXPECT_EQ(*cache.Lookup(Key(7, 1)), "artifact-one");

  // Session level: a different graph and a different mining floor both
  // change the Stage I content key, so cached responses for one artifact
  // can never answer for another.
  LabeledGraph g1 = TestGraph(11);
  LabeledGraph g2 = TestGraph(12);
  Result<MiningSession> s1 = TestSession(&g1);
  Result<MiningSession> s1_again = TestSession(&g1);
  Result<MiningSession> s2 = TestSession(&g2);
  Result<MiningSession> s1_floor4 = TestSession(&g1, /*min_support=*/4);
  ASSERT_TRUE(s1.ok() && s1_again.ok() && s2.ok() && s1_floor4.ok());
  EXPECT_EQ(s1->stage1_content_key(), s1_again->stage1_content_key());
  EXPECT_NE(s1->stage1_content_key(), s2->stage1_content_key());
  EXPECT_NE(s1->stage1_content_key(), s1_floor4->stage1_content_key());
}

TEST(ResultCacheTest, TransactionPayloadsSeparateStage1Keys) {
  // A transaction source changes kTransaction answers without changing the
  // spider set, so it must change the Stage I content key too — otherwise
  // a cached transaction-measure response from one payload could answer
  // for a session serving a different payload.
  LabeledGraph g = TestGraph(11);
  auto session_with = [&g](const VertexTxnMap* map) {
    SessionConfig config;
    config.min_support = 3;
    config.txn_map = map;
    return MiningSession::Create(&g, config);
  };

  VertexTxnMap map_a;
  map_a.num_transactions = 2;
  map_a.offsets.assign(static_cast<size_t>(g.NumVertices()) + 1, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    map_a.txn_ids.push_back(static_cast<int32_t>(v % 2));
    map_a.offsets[static_cast<size_t>(v) + 1] = v + 1;
  }
  VertexTxnMap map_b = map_a;
  map_b.txn_ids[0] ^= 1;  // one payload bit differs

  Result<MiningSession> bare = session_with(nullptr);
  Result<MiningSession> with_a = session_with(&map_a);
  Result<MiningSession> with_a_again = session_with(&map_a);
  Result<MiningSession> with_b = session_with(&map_b);
  ASSERT_TRUE(bare.ok() && with_a.ok() && with_a_again.ok() && with_b.ok());
  EXPECT_NE(bare->stage1_content_key(), with_a->stage1_content_key());
  EXPECT_NE(with_a->stage1_content_key(), with_b->stage1_content_key());
  // Same payload content -> same key: hits still work across restarts.
  EXPECT_EQ(with_a->stage1_content_key(), with_a_again->stage1_content_key());
}

TEST(ResultCacheTest, ZeroCapacityDisablesTheCache) {
  for (const auto& [entries, bytes] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 1 << 20}, {16, 0}, {0, 0}}) {
    ResultCacheConfig config;
    config.max_entries = entries;
    config.max_bytes = bytes;
    ResultCache cache(config);
    EXPECT_FALSE(cache.enabled());
    cache.Insert(Key(1, 1), "payload");
    EXPECT_FALSE(cache.Lookup(Key(1, 1)).has_value());
    // A disabled cache counts nothing: no phantom misses in summaries.
    EXPECT_EQ(cache.stats().hits, 0);
    EXPECT_EQ(cache.stats().misses, 0);
    EXPECT_EQ(cache.stats().entries, 0);
  }

  // End-to-end: a server with a disabled cache recomputes every time.
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());
  ResultCacheConfig disabled;
  disabled.max_entries = 0;
  ResultCache cache(disabled);
  const std::string requests =
      "{\"id\": 1, \"k\": 3, \"seed\": 2, \"vmin\": 8, \"seed_count\": 10}\n";
  for (int run = 0; run < 2; ++run) {
    std::ostringstream err;
    ServeOptions options;
    options.summary = false;
    options.cache = &cache;
    ASSERT_TRUE(ServeStream(*session, requests, options, err).status.ok());
  }
  EXPECT_EQ(session->queries_run(), 2);  // no bypass
}

TEST(ResultCacheTest, InsertUnderExistingKeyRefreshesInPlace) {
  ResultCacheConfig config;
  config.max_entries = 2;
  config.max_bytes = 1024;
  ResultCache cache(config);
  // Two workers computing the same deterministic query race to Insert;
  // the second insert must refresh, not duplicate (entries stays 1, bytes
  // track the refreshed payload).
  cache.Insert(Key(1, 1), "payload");
  cache.Insert(Key(1, 1), "payload");
  EXPECT_EQ(cache.stats().entries, 1);
  EXPECT_EQ(cache.stats().insertions, 1);
  EXPECT_EQ(cache.stats().bytes, 7);
}

}  // namespace
}  // namespace spidermine::cli
