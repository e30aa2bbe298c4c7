#include "spider/spider_store_mmap.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/binary_format.h"
#include "graph/graph_builder.h"
#include "section_file_test_util.h"
#include "spider_test_util.h"
#include "spidermine/session.h"

/// The zero-copy `.sm2` Stage I artifact: a mapped session must answer
/// queries byte-identically to the session that mined the store (at any
/// thread count), corrupt/truncated/misaligned files must be rejected
/// through Result<>, tampered bulk sections must be caught by the lazy CRC
/// pass on first touch, and an artifact must not load against another
/// graph.

namespace spidermine {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

LabeledGraph TestGraph(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder = GenerateErdosRenyi(180, 2.0, 12, &rng);
  Pattern planted = RandomConnectedPattern(9, 0.15, 12, &rng);
  PatternInjector injector(&builder);
  EXPECT_TRUE(injector.Inject(planted, 3, &rng).ok());
  return std::move(builder.Build()).value();
}

SessionConfig MinedConfig(int32_t threads = 0) {
  SessionConfig config;
  config.min_support = 3;
  if (threads > 0) config.num_threads = threads;
  return config;
}

TopKQuery SmallQuery(uint64_t seed) {
  TopKQuery query;
  query.k = 5;
  query.dmax = 4;
  query.vmin = 8;
  query.rng_seed = seed;
  query.seed_count_override = 8;
  return query;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A mined session plus its `.sm2` artifact on disk. The graph lives
/// behind a unique_ptr so the session's borrowed pointer survives the
/// fixture being returned by value.
struct Fixture {
  std::unique_ptr<LabeledGraph> graph;
  std::optional<MiningSession> mined;
  std::string path;
};

Fixture MakeFixture(const std::string& name, uint64_t seed) {
  Fixture fx;
  fx.graph = std::make_unique<LabeledGraph>(TestGraph(seed));
  Result<MiningSession> mined =
      MiningSession::Create(fx.graph.get(), MinedConfig());
  EXPECT_TRUE(mined.ok()) << mined.status();
  EXPECT_GT(mined->store().size(), 0);
  fx.mined.emplace(std::move(*mined));
  fx.path = TempPath(name);
  EXPECT_TRUE(fx.mined->SaveStage1(fx.path).ok());
  return fx;
}

TEST(SpiderStoreMmapTest, MappedSessionAnswersByteIdenticalQueries) {
  Fixture fx = MakeFixture("sm2_roundtrip.sm2", 101);
  EXPECT_EQ(binary_format::PeekMagic(fx.path), std::string(kSm2Magic, 4));

  // Byte-identity must hold at every thread count (the serving contract).
  for (int32_t threads : {1, 2, 4}) {
    Result<MiningSession> loaded = MiningSession::LoadStage1(
        fx.graph.get(), MinedConfig(threads), fx.path);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_EQ(loaded->stage1_load_mode(), Stage1LoadMode::kMapped);
    EXPECT_TRUE(loaded->store().is_borrowed());
    EXPECT_TRUE(loaded->index().is_borrowed());
    EXPECT_EQ(loaded->config().min_support, 3);
    EXPECT_EQ(StoreTranscript(loaded->store()),
              StoreTranscript(fx.mined->store()));
    for (uint64_t seed : {5, 6}) {
      Result<QueryResult> a = fx.mined->RunQuery(SmallQuery(seed));
      Result<QueryResult> b = loaded->RunQuery(SmallQuery(seed));
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_FALSE(a->patterns.empty());
      EXPECT_EQ(PatternsTranscript(b->patterns),
                PatternsTranscript(a->patterns))
          << "mapped session diverged at seed=" << seed
          << " threads=" << threads;
    }
  }
  std::filesystem::remove(fx.path);
}

TEST(SpiderStoreMmapTest, WriterIsDeterministic) {
  LabeledGraph g = TestGraph(113);
  Result<MiningSession> session = MiningSession::Create(&g, MinedConfig());
  ASSERT_TRUE(session.ok());
  Stage1Meta meta;
  meta.min_support = 3;
  meta.num_graph_vertices = g.NumVertices();
  meta.graph_hash = g.ContentHash();
  EXPECT_EQ(Stage1ToSm2Bytes(session->store(), session->index(), meta),
            Stage1ToSm2Bytes(session->store(), session->index(), meta));
}

TEST(SpiderStoreMmapTest, TruncatedFilesAreRejectedAtOpen) {
  Fixture fx = MakeFixture("sm2_truncate.sm2", 102);
  const std::string bytes = ReadAll(fx.path);
  ASSERT_GT(bytes.size(), 512u);
  const std::string trunc_path = TempPath("sm2_truncate_cut.sm2");
  // Inside the header, inside the section area, and one byte short.
  for (size_t keep : {size_t{3}, size_t{100}, size_t{400},
                      bytes.size() - 1}) {
    WriteAll(trunc_path, bytes.substr(0, keep));
    Result<std::unique_ptr<MappedStage1>> r = MappedStage1::Open(trunc_path);
    EXPECT_FALSE(r.ok()) << "accepted a " << keep << "-byte prefix";
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  }
  std::filesystem::remove(fx.path);
  std::filesystem::remove(trunc_path);
}

TEST(SpiderStoreMmapTest, HeaderAndMetaCorruptionRejectedAtOpen) {
  Fixture fx = MakeFixture("sm2_header.sm2", 103);
  const std::string bytes = ReadAll(fx.path);
  const std::string bad_path = TempPath("sm2_header_bad.sm2");

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteAll(bad_path, bad_magic);
  Result<std::unique_ptr<MappedStage1>> r1 = MappedStage1::Open(bad_path);
  ASSERT_FALSE(r1.ok());
  EXPECT_NE(r1.status().message().find("magic"), std::string::npos);

  std::string bad_version = bytes;
  bad_version[4] = 9;  // version little-endian low byte
  WriteAll(bad_path, bad_version);
  Result<std::unique_ptr<MappedStage1>> r2 = MappedStage1::Open(bad_path);
  ASSERT_FALSE(r2.ok());
  // A version flip lands in either the version check or the header CRC,
  // depending on check order; both must reject.
  EXPECT_EQ(r2.status().code(), StatusCode::kIoError);

  // Flip a section-table byte: the header CRC must catch it.
  std::string bad_table = bytes;
  bad_table[40] = static_cast<char>(bad_table[40] ^ 0x01);
  WriteAll(bad_path, bad_table);
  Result<std::unique_ptr<MappedStage1>> r3 = MappedStage1::Open(bad_path);
  ASSERT_FALSE(r3.ok());
  EXPECT_NE(r3.status().message().find("checksum"), std::string::npos);

  std::filesystem::remove(fx.path);
  std::filesystem::remove(bad_path);
}

TEST(SpiderStoreMmapTest, MisalignedSectionRejectedAtOpen) {
  Fixture fx = MakeFixture("sm2_align.sm2", 104);
  std::string bytes = ReadAll(fx.path);
  // Nudge section 1's offset off the 64-byte grid and re-sign the header,
  // so only the alignment check can reject it.
  constexpr size_t kHeaderBytes = 16 + 9 * 32;
  const size_t entry1_offset_pos = 16 + 1 * 32 + 8;
  uint64_t offset = 0;
  std::memcpy(&offset, bytes.data() + entry1_offset_pos, sizeof(offset));
  offset += 1;
  std::memcpy(bytes.data() + entry1_offset_pos, &offset, sizeof(offset));
  const uint32_t crc =
      Crc32(std::string_view(bytes.data(), kHeaderBytes));
  std::memcpy(bytes.data() + kHeaderBytes, &crc, sizeof(crc));
  const std::string bad_path = TempPath("sm2_align_bad.sm2");
  WriteAll(bad_path, bytes);

  Result<std::unique_ptr<MappedStage1>> r = MappedStage1::Open(bad_path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("misaligned"), std::string::npos);

  std::filesystem::remove(fx.path);
  std::filesystem::remove(bad_path);
}

TEST(SpiderStoreMmapTest, WrappingCountsRejectedAtOpen) {
  Fixture fx = MakeFixture("sm2_wrap.sm2", 108);
  const std::string bytes = ReadAll(fx.path);
  const std::string bad_path = TempPath("sm2_wrap_bad.sm2");
  // total_leaves (meta byte 56) + 2^61 makes 8 x total_leaves wrap to the
  // real leaf_pool length; total_anchors (byte 64) + 2^62 does the same
  // for 4 x total_anchors. The offsets arrays ending at those counts
  // (anchor_offsets and index_offsets for anchors) are moved along and
  // every CRC is recomputed, so only the count check can reject.
  struct Case {
    size_t meta_field;
    uint64_t delta;
    std::vector<uint32_t> offsets_kinds;
    const char* section;
  };
  for (const Case& c : {Case{56, uint64_t{1} << 61, {3}, "leaf_pool"},
                        Case{64, uint64_t{1} << 62, {5, 7}, "anchor_pool"}}) {
    std::string crafted = bytes;
    InflateCount(&crafted, c.meta_field, c.delta, c.offsets_kinds);
    WriteAll(bad_path, crafted);
    Result<std::unique_ptr<MappedStage1>> r = MappedStage1::Open(bad_path);
    ASSERT_FALSE(r.ok()) << c.section << " count wrap was accepted";
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    EXPECT_NE(r.status().message().find(c.section), std::string::npos)
        << r.status();
    EXPECT_EQ(r.status().message().find("star"), std::string::npos)
        << r.status();
  }
  std::filesystem::remove(fx.path);
  std::filesystem::remove(bad_path);
}

TEST(SpiderStoreMmapTest, TamperedBulkSectionCaughtOnFirstTouch) {
  Fixture fx = MakeFixture("sm2_tamper.sm2", 105);
  std::string bytes = ReadAll(fx.path);
  // Flip the last byte: it lives in the final (index_ids) section, past
  // everything the eager Open-time validation reads.
  bytes.back() = static_cast<char>(bytes.back() ^ 0x40);
  const std::string bad_path = TempPath("sm2_tamper_bad.sm2");
  WriteAll(bad_path, bytes);

  // Open succeeds: bulk sections are validated lazily.
  Result<std::unique_ptr<MappedStage1>> mapped = MappedStage1::Open(bad_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status();
  Status touched = (*mapped)->EnsureValidated();
  EXPECT_EQ(touched.code(), StatusCode::kIoError);
  EXPECT_NE(touched.message().find("checksum"), std::string::npos);
  // The verdict is cached, not recomputed.
  EXPECT_EQ((*mapped)->EnsureValidated().code(), StatusCode::kIoError);

  // Through the session: load succeeds, the first query fails.
  Result<MiningSession> loaded =
      MiningSession::LoadStage1(fx.graph.get(), SessionConfig{}, bad_path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Result<QueryResult> q = loaded->RunQuery(SmallQuery(5));
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kIoError);

  std::filesystem::remove(fx.path);
  std::filesystem::remove(bad_path);
}

TEST(SpiderStoreMmapTest, GraphMismatchRejected) {
  Fixture fx = MakeFixture("sm2_mismatch.sm2", 106);
  LabeledGraph other = TestGraph(107);  // same size, different content
  ASSERT_EQ(other.NumVertices(), fx.graph->NumVertices());
  Result<MiningSession> loaded =
      MiningSession::LoadStage1(&other, SessionConfig{}, fx.path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("hash mismatch"),
            std::string::npos);

  Rng rng(99);
  LabeledGraph smaller =
      std::move(GenerateErdosRenyi(50, 2.0, 5, &rng).Build()).value();
  loaded = MiningSession::LoadStage1(&smaller, SessionConfig{}, fx.path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("-vertex graph"),
            std::string::npos);
  std::filesystem::remove(fx.path);
}

TEST(SpiderStoreMmapTest, MissingFileRejected) {
  Result<std::unique_ptr<MappedStage1>> r =
      MappedStage1::Open("/nonexistent/dir/stage1.sm2");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace spidermine
