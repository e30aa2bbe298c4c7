#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/graph_partition.h"
#include "spider/spider_store.h"
#include "spider/spider_store_mmap.h"

/// \file stage1_partition.h
/// Out-of-core partitioned Stage I: mine the spider set per graph
/// partition (graph/graph_partition.h), persist each partition's
/// contribution as a partial artifact (`.sm2p`), and merge the partials
/// into a `.sm2` that is BYTE-IDENTICAL to a single-node `stage1` run —
/// at any partition count, worker count or thread count.
///
/// Why this is exact. The canonical Stage I store order is lexicographic
/// (head label, leaf-key vector) with prefixes first — exactly the DFS
/// preorder the star miner emits. A star's global anchor list is the set
/// of vertices whose 1-hop neighborhood covers the leaf multiset; every
/// owned vertex sees its exact ball inside its partition, so the global
/// anchor list is the concatenation of per-partition owned-anchor lists
/// in partition order (contiguous ascending ranges => globally sorted).
/// Each partition therefore mines ALL stars with at least one owned
/// anchor (local threshold 1 — no sigma prune, because global support is
/// unknowable locally) and records exact owned-anchor lists in ORIGINAL
/// vertex ids. The merge walks the partials in canonical order, sums
/// anchor counts into global support, applies sigma, applies the global
/// `max_spiders` budget as an exact prefix, and reconstructs closedness
/// flags with an ancestor stack — reproducing the single-node semantics
/// (a spider is non-closed iff an ADMITTED frequent child keeps its full
/// anchor set; a root is non-closed iff ANY frequent single-leaf child
/// does, admitted or not) bit for bit.
///
/// Trade-off stated honestly: threshold-1 local enumeration can emit
/// stars the sigma-pruned single-node run never attempts (they die at
/// the merge). On graphs with modest label alphabets this is cheap; on a
/// hub whose neighbors cover many distinct labels it can over-enumerate
/// combinatorially with large --max-leaves. Exactness requires it —
/// pruning locally below sigma would drop anchors from globally frequent
/// stars and break byte-identity.
///
/// `.sm2p` (magic "SM2P") is a section list over the same container as
/// `.sm2` (graph/section_file.h, docs/FORMATS.md): the `.sm2` columns
/// minus the closed column (merge-time information) and the CSR index
/// (rebuilt once, over the merged store).
///
/// Threading: a partial mines through MineStarSpiders on the caller's
/// pool, which is required (a serial caller passes a one-thread pool, and
/// the pool loop's inline branch is the serial path). The merge and the
/// `.sm2p` I/O are serial.

namespace spidermine {

inline constexpr char kSm2pMagic[4] = {'S', 'M', '2', 'P'};
inline constexpr uint32_t kSm2pFormatVersion = 1;
inline constexpr uint32_t kSm2pSectionCount = 6;

/// Provenance of one partial: the mining parameters (which the merged
/// artifact will record and the merge validates for consistency across
/// partials) plus the partition geometry and parent-graph identity.
struct Stage1PartialMeta {
  int64_t min_support = 2;
  int32_t max_star_leaves = 8;
  int64_t max_spiders = 0;
  int64_t num_graph_vertices = 0;  // parent graph, not the partition
  uint64_t graph_hash = 0;         // parent LabeledGraph::ContentHash()
  int32_t partition_index = 0;
  int32_t num_partitions = 1;
  int64_t owned_begin = 0;
  int64_t owned_end = 0;
};

/// Mining parameters of a partial run (sigma and the budget are applied
/// at MERGE time; they are carried here for the merged artifact's meta
/// and cross-partial consistency checks).
struct Stage1PartialConfig {
  int64_t min_support = 2;
  int32_t max_star_leaves = 8;
  int64_t max_spiders = 0;
  int64_t shard_grain = 0;
};

struct Stage1PartialResult {
  /// The partial's provenance: the config's mining parameters, spider
  /// radius 1, and the partition's parent identity and geometry.
  Stage1PartialMeta meta;
  /// Stars with >= 1 owned anchor, canonical order, anchors in ORIGINAL
  /// vertex ids (ascending, inside [owned_begin, owned_end)). The closed
  /// column is meaningless here (computed at merge) and not serialized.
  SpiderStore store;
  /// Stars the threshold-1 local run enumerated before the owned filter
  /// (the over-enumeration measure; >= store.size()).
  int64_t local_stars = 0;
};

/// Mines partition \p part's Stage I contribution on \p pool (a one-thread
/// pool runs it inline). Deterministic at any thread count / shard grain.
/// Requires part.radius >= 1 (the star miner's spider radius).
Result<Stage1PartialResult> MineStage1Partial(
    const GraphPartition& part, const Stage1PartialConfig& config,
    ThreadPool& pool);

/// Serializes a partial store + meta to `.sm2p` bytes (deterministic) /
/// writes them to \p path. Little-endian hosts only, like `.sm2`.
std::string Stage1PartialToBytes(const SpiderStore& store,
                                 const Stage1PartialMeta& meta);
Status SaveStage1Partial(const SpiderStore& store,
                         const Stage1PartialMeta& meta,
                         const std::string& path);

/// An opened `.sm2p` partial. Unlike MappedStage1 the validation is fully
/// EAGER — header, geometry, every section CRC and the content invariants
/// (canonical order is checked during the merge walk) — because a partial
/// is read exactly once, by the merge, and the worker driver uses Open as
/// its truncation/corruption check.
class MappedStage1Partial {
 public:
  static Result<std::unique_ptr<MappedStage1Partial>> Open(
      const std::string& path);

  const Stage1PartialMeta& meta() const { return meta_; }
  // Star ids fit int32: Open checks the count.
  int64_t size() const { return stars_.size(); }
  LabelId head_label(int64_t i) const { return stars_.head_label(i); }
  std::span<const SpiderLeafKey> leaves(int64_t i) const {
    return stars_.leaves(i);
  }
  std::span<const VertexId> anchors(int64_t i) const {
    return stars_.anchors(i);
  }

 private:
  MappedStage1Partial() = default;

  SectionFile file_;
  Stage1PartialMeta meta_;
  SpiderStore stars_;  // borrows file_; has no closed column
};

/// The merged Stage I set plus everything needed to write the `.sm2`.
struct Stage1MergeResult {
  SpiderStore store;  // canonical order, global anchors, closed flags set
  Stage1Meta meta;    // parent-graph identity + mining params + truncated
  /// Frequent stars in the full (pre-budget) canonical enumeration.
  int64_t frequent_stars = 0;
  /// Partial entries walked across all inputs (merge work measure).
  int64_t partial_entries = 0;
};

/// Summary counters of a merge-to-file run.
struct Stage1MergeStats {
  int64_t merged_spiders = 0;
  int64_t frequent_stars = 0;
  int64_t total_anchors = 0;
  bool truncated = false;
};

/// Folds the partial artifacts at \p paths (all partitions of one run, in
/// any order) into the merged Stage I set. No graph access: the parent
/// identity comes from the partial metas, which must agree on graph hash,
/// mining parameters and partition count, and whose owned ranges must
/// tile [0, num_graph_vertices) exactly. kIoError on any inconsistency,
/// non-canonical partial ordering, or a partial set that is not
/// prefix-closed.
Result<Stage1MergeResult> MergeStage1Partials(
    const std::vector<std::string>& paths);

/// MergeStage1Partials + SpiderIndex build + SaveStage1Sm2 to \p out_path.
/// The written file is byte-identical to `MiningSession::SaveStage1` of a
/// single-node run with the same parameters.
Result<Stage1MergeStats> MergeStage1PartialsToFile(
    const std::vector<std::string>& paths, const std::string& out_path);

}  // namespace spidermine
