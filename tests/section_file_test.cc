#include "graph/section_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/strings.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "graph/graph_partition.h"
#include "section_file_test_util.h"
#include "spider/spider_store_mmap.h"
#include "spidermine/session.h"
#include "spidermine/stage1_partition.h"
#include "spider_test_util.h"

/// A corruption battery over the one section-table reader, run on both
/// formats built on it (`.sm2` and `.sm2p`). Every mutant must fail
/// `Open`: each flipped byte of the preamble, the section table and the
/// header CRC; one flipped byte inside each section; and truncation at
/// each section's start and end. `.sm2` checks all sections but the meta
/// lazily, so a flip there may instead fail `EnsureValidated`. A flip in
/// the zero padding between sections is covered by no CRC: that file must
/// open to columns equal to the original's.

namespace spidermine {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
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

LabeledGraph SmallGraph() {
  Rng rng(83);
  return std::move(GenerateErdosRenyi(120, 2.5, 6, &rng).Build()).value();
}

/// What opening one file gave: whether Open succeeded, the lazy
/// validation verdict (Ok for eager formats), and the column contents.
struct Opened {
  Status open;
  Status validated;
  std::string columns;
};

template <typename T>
void AppendColumn(std::string* out, std::span<const T> column) {
  const std::span<const uint8_t> bytes = AsBytes(column);
  out->append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  out->push_back('|');
}

Opened OpenSm2(const std::string& path) {
  Opened result;
  Result<std::unique_ptr<MappedStage1>> mapped = MappedStage1::Open(path);
  result.open = mapped.status();
  if (!mapped.ok()) return result;
  result.validated = (*mapped)->EnsureValidated();
  const SpiderStore& store = (*mapped)->store();
  AppendColumn(&result.columns, store.head_labels());
  AppendColumn(&result.columns, store.closed_flags());
  AppendColumn(&result.columns, store.leaf_offsets());
  AppendColumn(&result.columns, store.leaf_pool());
  AppendColumn(&result.columns, store.anchor_offsets());
  AppendColumn(&result.columns, store.anchor_pool());
  AppendColumn(&result.columns, (*mapped)->index().offsets());
  AppendColumn(&result.columns, (*mapped)->index().ids());
  const Stage1Meta& meta = (*mapped)->meta();
  result.columns += StrCat(meta.min_support, ",", meta.max_star_leaves, ",",
                           meta.max_spiders, ",", meta.num_graph_vertices,
                           ",", meta.graph_hash, ",", meta.truncated);
  return result;
}

Opened OpenSm2p(const std::string& path) {
  Opened result;
  Result<std::unique_ptr<MappedStage1Partial>> partial =
      MappedStage1Partial::Open(path);
  result.open = partial.status();
  if (!partial.ok()) return result;
  const MappedStage1Partial& p = **partial;
  for (int64_t i = 0; i < p.size(); ++i) {
    const LabelId label = p.head_label(i);
    AppendColumn(&result.columns, std::span<const LabelId>(&label, 1));
    AppendColumn(&result.columns, p.leaves(i));
    AppendColumn(&result.columns, p.anchors(i));
  }
  const Stage1PartialMeta& meta = (*partial)->meta();
  result.columns += StrCat(
      meta.min_support, ",", meta.max_star_leaves, ",", meta.max_spiders,
      ",", meta.num_graph_vertices, ",", meta.graph_hash, ",",
      meta.partition_index, ",", meta.num_partitions, ",", meta.owned_begin,
      ",", meta.owned_end);
  return result;
}

/// Runs the battery over \p bytes. \p lazy_from: the first section kind
/// whose damage may surface in the lazy validation instead of Open (the
/// section count for an eagerly validated format).
void RunBattery(const std::string& name, const std::string& bytes,
                const std::function<Opened(const std::string&)>& open,
                uint32_t lazy_from) {
  const std::string path = TempPath(StrCat("section_file_", name));
  WriteAll(path, bytes);
  const Opened original = open(path);
  ASSERT_TRUE(original.open.ok()) << original.open;
  ASSERT_TRUE(original.validated.ok()) << original.validated;

  const auto open_mutant = [&](const std::string& mutant) {
    WriteAll(path, mutant);
    return open(path);
  };
  const auto flipped = [&](size_t pos) {
    std::string mutant = bytes;
    mutant[pos] = static_cast<char>(mutant[pos] ^ 0x01);
    return mutant;
  };

  // Every byte of the preamble, the section table and the header CRC.
  const size_t header_end = HeaderBytesOf(bytes) + 4;
  for (size_t pos = 0; pos < header_end; ++pos) {
    EXPECT_FALSE(open_mutant(flipped(pos)).open.ok())
        << name << ": header byte " << pos << " flipped";
  }

  const uint32_t count = SectionCountOf(bytes);
  size_t prev_end = header_end;
  int padding_gaps = 0;
  for (uint32_t kind = 0; kind < count; ++kind) {
    const SectionEntry e = EntryOf(bytes, kind);
    ASSERT_GT(e.length, 0u) << name << " section " << kind << " is empty";

    // One byte inside the section.
    const Opened inside = open_mutant(flipped(e.offset + e.length / 2));
    if (kind < lazy_from) {
      EXPECT_FALSE(inside.open.ok()) << name << ": section " << kind;
    } else {
      EXPECT_FALSE(inside.open.ok() && inside.validated.ok())
          << name << ": section " << kind;
    }

    // Truncation at the section's start and end (the last section's end
    // is the whole file, so one byte short of it).
    const size_t end = e.offset + e.length;
    for (size_t keep : {e.offset, kind + 1 == count ? end - 1 : end}) {
      EXPECT_FALSE(open_mutant(bytes.substr(0, keep)).open.ok())
          << name << ": truncated to " << keep << " bytes";
    }

    // The zero padding ahead of the section: no CRC covers it.
    if (e.offset > prev_end) {
      ++padding_gaps;
      for (size_t pos : {prev_end, e.offset - 1}) {
        const Opened padded = open_mutant(flipped(pos));
        ASSERT_TRUE(padded.open.ok()) << name << ": padding byte " << pos
                                      << ": " << padded.open;
        EXPECT_TRUE(padded.validated.ok()) << padded.validated;
        EXPECT_EQ(padded.columns, original.columns)
            << name << ": padding byte " << pos;
      }
    }
    prev_end = end;
  }
  EXPECT_GT(padding_gaps, 0) << name << " has no padding to flip";
  std::filesystem::remove(path);
}

TEST(SectionFileTest, Sm2CorruptionBattery) {
  const LabeledGraph graph = SmallGraph();
  SessionConfig config;
  config.min_support = 3;
  Result<MiningSession> session = MiningSession::Create(&graph, config);
  ASSERT_TRUE(session.ok()) << session.status();
  ASSERT_GT(session->store().size(), 0);
  const std::string path = TempPath("section_file_source.sm2");
  ASSERT_TRUE(session->SaveStage1(path).ok());
  const std::string bytes = ReadAll(path);
  std::filesystem::remove(path);
  RunBattery("sm2", bytes, OpenSm2, /*lazy_from=*/1);
}

TEST(SectionFileTest, Sm2pCorruptionBattery) {
  const LabeledGraph graph = SmallGraph();
  Result<PartitionPlan> plan = MakePartitionPlan(graph, 2, 1);
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<GraphPartition> part = BuildGraphPartition(graph, *plan, 1);
  ASSERT_TRUE(part.ok()) << part.status();
  Result<Stage1PartialResult> partial =
      MineStage1Partial(*part, Stage1PartialConfig{}, SerialPool());
  ASSERT_TRUE(partial.ok()) << partial.status();
  ASSERT_GT(partial->store.size(), 0);
  RunBattery("sm2p", Stage1PartialToBytes(partial->store, partial->meta),
             OpenSm2p, /*lazy_from=*/kSm2pSectionCount);
}

/// Both formats keep the spider-radius meta field (int32 after the int64
/// support floor); every store holds radius-1 stars, so a validly signed
/// file recording any other radius is refused with an error naming it.
TEST(SectionFileTest, RadiusOtherThanOneIsRejected) {
  const LabeledGraph graph = SmallGraph();
  Result<MiningSession> session =
      MiningSession::Create(&graph, SessionConfig{});
  ASSERT_TRUE(session.ok()) << session.status();
  const std::string path = TempPath("section_file_radius.sm2");
  ASSERT_TRUE(session->SaveStage1(path).ok());
  std::string sm2 = ReadAll(path);
  Result<PartitionPlan> plan = MakePartitionPlan(graph, 2, 1);
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<GraphPartition> part = BuildGraphPartition(graph, *plan, 1);
  ASSERT_TRUE(part.ok()) << part.status();
  Result<Stage1PartialResult> partial =
      MineStage1Partial(*part, Stage1PartialConfig{}, SerialPool());
  ASSERT_TRUE(partial.ok()) << partial.status();
  std::string sm2p = Stage1PartialToBytes(partial->store, partial->meta);
  for (std::string* bytes : {&sm2, &sm2p}) {
    const size_t radius_at = EntryOf(*bytes, 0).offset + 8;
    ASSERT_EQ(LoadAt<int32_t>(*bytes, radius_at), 1);
    StoreAt<int32_t>(bytes, radius_at, 2);
    ResignAll(bytes);
  }
  WriteAll(path, sm2);
  const Status sm2_status = MappedStage1::Open(path).status();
  EXPECT_NE(sm2_status.message().find("spider_radius is 2"),
            std::string::npos)
      << sm2_status;
  WriteAll(path, sm2p);
  const Status sm2p_status = MappedStage1Partial::Open(path).status();
  EXPECT_NE(sm2p_status.message().find("spider_radius is 2"),
            std::string::npos)
      << sm2p_status;
  std::filesystem::remove(path);
}

TEST(SectionFileTest, EmptyAndForeignFilesAreRejected) {
  const std::string path = TempPath("section_file_foreign.bin");
  for (const std::string& bytes :
       {std::string(), std::string("SM2"), std::string(400, '\0')}) {
    WriteAll(path, bytes);
    EXPECT_FALSE(MappedStage1::Open(path).ok()) << bytes.size();
    EXPECT_FALSE(MappedStage1Partial::Open(path).ok()) << bytes.size();
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace spidermine
