#include "spidermine/stage1_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "graph/graph_builder.h"
#include "graph/graph_partition.h"
#include "section_file_test_util.h"
#include "spidermine/session.h"
#include "spider_test_util.h"

/// The tentpole contract of partitioned Stage I: merging the per-partition
/// `.sm2p` partials yields a `.sm2` BYTE-IDENTICAL to a single-node
/// `stage1` run — at any partition count, any thread count, budgeted or
/// not. Plus: the `.sm2p` codec rejects corruption/truncation, and the
/// merge rejects mixed, duplicated or incomplete partial sets.

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

LabeledGraph ErGraph(uint64_t seed, int64_t n = 250) {
  Rng rng(seed);
  GraphBuilder builder = GenerateErdosRenyi(n, 3.0, 6, &rng);
  return std::move(builder.Build()).value();
}

LabeledGraph BaGraph(uint64_t seed, int64_t n = 250) {
  Rng rng(seed);
  GraphBuilder builder = GenerateBarabasiAlbert(n, 2, 6, &rng);
  return std::move(builder.Build()).value();
}

struct MineParams {
  int64_t min_support = 3;
  int32_t max_star_leaves = 4;
  int64_t max_spiders = 0;
};

/// The single-node reference: MiningSession::Create + SaveStage1.
std::string SingleNodeSm2Bytes(const LabeledGraph& graph,
                               const MineParams& params, int32_t threads) {
  SessionConfig config;
  config.min_support = params.min_support;
  config.max_star_leaves = params.max_star_leaves;
  config.max_spiders = params.max_spiders;
  config.num_threads = threads;
  Result<MiningSession> session = MiningSession::Create(&graph, config);
  EXPECT_TRUE(session.ok()) << session.status();
  const std::string path = TempPath("stage1_partition_single.sm2");
  EXPECT_TRUE(session->SaveStage1(path).ok());
  std::string bytes = ReadAll(path);
  std::filesystem::remove(path);
  return bytes;
}

/// The partitioned pipeline, in-process: partition, mine each partial,
/// save `.sm2p`s, merge to a `.sm2`.
std::string PartitionedSm2Bytes(const LabeledGraph& graph,
                                const MineParams& params, int32_t parts,
                                int32_t threads, const std::string& tag) {
  Result<PartitionPlan> plan = MakePartitionPlan(graph, parts, 1);
  EXPECT_TRUE(plan.ok()) << plan.status();
  ThreadPool pool(threads);
  std::vector<std::string> partial_paths;
  for (int32_t p = 0; p < parts; ++p) {
    Result<GraphPartition> part = BuildGraphPartition(graph, *plan, p);
    EXPECT_TRUE(part.ok()) << part.status();
    Stage1PartialConfig config;
    config.min_support = params.min_support;
    config.max_star_leaves = params.max_star_leaves;
    config.max_spiders = params.max_spiders;
    Result<Stage1PartialResult> partial =
        MineStage1Partial(*part, config, pool);
    EXPECT_TRUE(partial.ok()) << partial.status();
    const std::string path =
        TempPath(StrCat("stage1_partition_", tag, "_", p, ".sm2p"));
    EXPECT_TRUE(SaveStage1Partial(partial->store, partial->meta, path).ok());
    partial_paths.push_back(path);
  }
  const std::string out = TempPath(StrCat("stage1_partition_", tag, ".sm2"));
  Result<Stage1MergeStats> stats =
      MergeStage1PartialsToFile(partial_paths, out);
  EXPECT_TRUE(stats.ok()) << stats.status();
  std::string bytes = ReadAll(out);
  for (const std::string& path : partial_paths) {
    std::filesystem::remove(path);
  }
  std::filesystem::remove(out);
  return bytes;
}

TEST(Stage1PartitionTest, MergedArtifactIsByteIdenticalToSingleNode) {
  for (const LabeledGraph& graph : {ErGraph(51), BaGraph(53)}) {
    for (const int64_t budget : {int64_t{0}, int64_t{37}}) {
      MineParams params;
      params.max_spiders = budget;
      const std::string reference =
          SingleNodeSm2Bytes(graph, params, /*threads=*/1);
      ASSERT_FALSE(reference.empty());
      // The single-node result itself must not depend on threads.
      ASSERT_EQ(SingleNodeSm2Bytes(graph, params, /*threads=*/8),
                reference);
      for (const int32_t parts : {1, 2, 5}) {
        for (const int32_t threads : {1, 8}) {
          EXPECT_EQ(PartitionedSm2Bytes(graph, params, parts, threads,
                                        StrCat("ident_", parts, "_",
                                               threads, "_", budget)),
                    reference)
              << "parts=" << parts << " threads=" << threads
              << " budget=" << budget;
        }
      }
    }
  }
}

TEST(Stage1PartitionTest, BudgetPrefixIsExactAtEveryCutPoint) {
  // Sweep the budget across the whole frequent set on a small graph: the
  // admitted prefix AND the closed flags at the truncation boundary must
  // match the single-node run at every cut.
  const LabeledGraph graph = ErGraph(57, 60);
  MineParams unbudgeted;
  SessionConfig probe_config;
  probe_config.min_support = unbudgeted.min_support;
  probe_config.max_star_leaves = unbudgeted.max_star_leaves;
  Result<MiningSession> probe = MiningSession::Create(&graph, probe_config);
  ASSERT_TRUE(probe.ok()) << probe.status();
  const int64_t total = probe->store().size();
  ASSERT_GT(total, 5);
  for (int64_t budget = 1; budget <= total + 1;
       budget += std::max<int64_t>(1, total / 12)) {
    MineParams params;
    params.max_spiders = budget;
    EXPECT_EQ(PartitionedSm2Bytes(graph, params, 3, 1,
                                  StrCat("sweep_", budget)),
              SingleNodeSm2Bytes(graph, params, 1))
        << "budget=" << budget << " of " << total;
  }
}

TEST(Stage1PartitionTest, PartialRejectsCorruptionAndTruncation) {
  const LabeledGraph graph = ErGraph(61, 80);
  Result<PartitionPlan> plan = MakePartitionPlan(graph, 2, 1);
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<GraphPartition> part = BuildGraphPartition(graph, *plan, 0);
  ASSERT_TRUE(part.ok()) << part.status();
  Result<Stage1PartialResult> partial =
      MineStage1Partial(*part, Stage1PartialConfig{}, SerialPool());
  ASSERT_TRUE(partial.ok()) << partial.status();
  ASSERT_GT(partial->store.size(), 0);
  const std::string bytes =
      Stage1PartialToBytes(partial->store, partial->meta);
  const std::string path = TempPath("stage1_partial_corrupt.sm2p");

  WriteAll(path, bytes);
  EXPECT_TRUE(MappedStage1Partial::Open(path).ok());

  // Single corrupted bytes anywhere — header, offsets, pools — fail the
  // EAGER validation (the worker driver's truncation check relies on it).
  for (size_t offset : {size_t{9}, size_t{300}, bytes.size() / 2,
                        bytes.size() - 3}) {
    std::string corrupt = bytes;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
    WriteAll(path, corrupt);
    Result<std::unique_ptr<MappedStage1Partial>> r =
        MappedStage1Partial::Open(path);
    EXPECT_FALSE(r.ok()) << "corruption at byte " << offset;
  }
  // Truncations (the shape a killed worker leaves behind).
  for (size_t keep : {size_t{0}, size_t{12}, bytes.size() / 3,
                      bytes.size() - 1}) {
    WriteAll(path, bytes.substr(0, keep));
    EXPECT_FALSE(MappedStage1Partial::Open(path).ok())
        << "truncated to " << keep << " bytes";
  }
  std::filesystem::remove(path);
}

TEST(Stage1PartitionTest, PartialRejectsWrappingCountsAtOpen) {
  const LabeledGraph graph = ErGraph(63, 80);
  Result<PartitionPlan> plan = MakePartitionPlan(graph, 2, 1);
  ASSERT_TRUE(plan.ok()) << plan.status();
  Result<GraphPartition> part = BuildGraphPartition(graph, *plan, 1);
  ASSERT_TRUE(part.ok()) << part.status();
  Result<Stage1PartialResult> partial =
      MineStage1Partial(*part, Stage1PartialConfig{}, SerialPool());
  ASSERT_TRUE(partial.ok()) << partial.status();
  const std::string bytes =
      Stage1PartialToBytes(partial->store, partial->meta);
  const std::string path = TempPath("stage1_partial_wrap.sm2p");
  // total_leaves (meta byte 72) + 2^61 and total_anchors (byte 80) + 2^62
  // wrap to the real pool lengths once multiplied by the element size;
  // the matching offsets array is moved along and every CRC recomputed.
  struct Case {
    size_t meta_field;
    uint64_t delta;
    uint32_t offsets_kind;
    const char* section;
  };
  for (const Case& c : {Case{72, uint64_t{1} << 61, 2, "leaf_pool"},
                        Case{80, uint64_t{1} << 62, 4, "anchor_pool"}}) {
    std::string crafted = bytes;
    InflateCount(&crafted, c.meta_field, c.delta, {c.offsets_kind});
    WriteAll(path, crafted);
    Result<std::unique_ptr<MappedStage1Partial>> r =
        MappedStage1Partial::Open(path);
    ASSERT_FALSE(r.ok()) << c.section << " count wrap was accepted";
    EXPECT_NE(r.status().message().find(c.section), std::string::npos)
        << r.status();
    EXPECT_EQ(r.status().message().find("star"), std::string::npos)
        << r.status();
  }
  std::filesystem::remove(path);
}

TEST(Stage1PartitionTest, MergeRejectsMixedOrIncompletePartialSets) {
  const LabeledGraph graph = ErGraph(67, 100);
  Result<PartitionPlan> plan = MakePartitionPlan(graph, 2, 1);
  ASSERT_TRUE(plan.ok()) << plan.status();
  std::vector<std::string> paths;
  for (int32_t p = 0; p < 2; ++p) {
    Result<GraphPartition> part = BuildGraphPartition(graph, *plan, p);
    ASSERT_TRUE(part.ok()) << part.status();
    Result<Stage1PartialResult> partial =
        MineStage1Partial(*part, Stage1PartialConfig{}, SerialPool());
    ASSERT_TRUE(partial.ok()) << partial.status();
    const std::string path =
        TempPath(StrCat("stage1_partial_merge_", p, ".sm2p"));
    ASSERT_TRUE(SaveStage1Partial(partial->store, partial->meta, path).ok());
    paths.push_back(path);
  }
  // The complete set merges.
  EXPECT_TRUE(MergeStage1Partials(paths).ok());
  // An incomplete set does not (num_partitions says 2).
  EXPECT_FALSE(MergeStage1Partials({paths[0]}).ok());
  // A duplicated partition does not.
  EXPECT_FALSE(MergeStage1Partials({paths[0], paths[0]}).ok());
  // A partial mined with different parameters does not mix in.
  {
    Result<GraphPartition> part = BuildGraphPartition(graph, *plan, 1);
    ASSERT_TRUE(part.ok());
    Result<Stage1PartialResult> partial =
        MineStage1Partial(*part, Stage1PartialConfig{}, SerialPool());
    ASSERT_TRUE(partial.ok());
    Stage1PartialMeta meta = partial->meta;
    meta.max_star_leaves = 3;
    const std::string mixed = TempPath("stage1_partial_mixed.sm2p");
    ASSERT_TRUE(SaveStage1Partial(partial->store, meta, mixed).ok());
    EXPECT_FALSE(MergeStage1Partials({paths[0], mixed}).ok());
    std::filesystem::remove(mixed);
  }
  for (const std::string& path : paths) std::filesystem::remove(path);
}

TEST(Stage1PartitionTest, PartialMiningValidatesItsInputs) {
  const LabeledGraph graph = ErGraph(71, 40);
  Result<PartitionPlan> plan = MakePartitionPlan(graph, 2, 1);
  ASSERT_TRUE(plan.ok());
  Result<GraphPartition> part = BuildGraphPartition(graph, *plan, 0);
  ASSERT_TRUE(part.ok());
  Stage1PartialConfig bad;
  bad.min_support = 0;
  EXPECT_FALSE(MineStage1Partial(*part, bad, SerialPool()).ok());
  GraphPartition no_halo = std::move(*part);
  no_halo.radius = 0;
  EXPECT_FALSE(
      MineStage1Partial(no_halo, Stage1PartialConfig{}, SerialPool()).ok());
}

}  // namespace
}  // namespace spidermine
