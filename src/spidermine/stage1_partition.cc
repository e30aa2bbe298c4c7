#include "spidermine/stage1_partition.h"

#include <algorithm>
#include <compare>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "graph/binary_format.h"
#include "spider/spider_index.h"
#include "spider/spider_store_mmap.h"
#include "spider/star_miner.h"

namespace spidermine {

namespace {

using binary_format::AppendI32;
using binary_format::AppendI64;
using binary_format::AppendU64;

/// Fixed byte length of the `.sm2p` meta section (see WritePartialMeta).
constexpr uint64_t kSm2pMetaBytes = 88;

constexpr const char* kSm2pSectionNames[kSm2pSectionCount] = {
    "meta",           "head_labels", "leaf_offsets",
    "leaf_pool",      "anchor_offsets", "anchor_pool"};

constexpr SectionFormat kSm2pFormat{std::string_view(kSm2pMagic, 4),
                                    kSm2pFormatVersion, "sm2p",
                                    kSm2pSectionNames};

enum Sm2pSectionKind : uint32_t {
  kMeta = 0,
  kHeadLabels = 1,
  kLeafOffsets = 2,
  kLeafPool = 3,
  kAnchorOffsets = 4,
  kAnchorPool = 5,
};

std::string WritePartialMeta(const Stage1PartialMeta& meta,
                             const SpiderStore& store) {
  std::string out;
  AppendI64(&out, meta.min_support);
  AppendI32(&out, 1);  // spider radius: every store holds radius-1 stars
  AppendI32(&out, meta.max_star_leaves);
  AppendI64(&out, meta.max_spiders);
  AppendI64(&out, meta.num_graph_vertices);
  AppendU64(&out, meta.graph_hash);
  AppendI32(&out, meta.partition_index);
  AppendI32(&out, meta.num_partitions);
  AppendI64(&out, meta.owned_begin);
  AppendI64(&out, meta.owned_end);
  AppendU64(&out, static_cast<uint64_t>(store.size()));
  AppendU64(&out, static_cast<uint64_t>(store.TotalLeaves()));
  AppendU64(&out, static_cast<uint64_t>(store.TotalAnchors()));
  return out;
}

/// Canonical order of star \p i of \p a against star \p j of \p b: head
/// label, then the leaf vector lexicographically with prefixes first — the
/// store order every miner pass and the merge share.
std::strong_ordering CompareStars(const MappedStage1Partial& a, int64_t i,
                                  const MappedStage1Partial& b, int64_t j) {
  if (const auto order = a.head_label(i) <=> b.head_label(j); order != 0) {
    return order;
  }
  const std::span<const SpiderLeafKey> x = a.leaves(i), y = b.leaves(j);
  return std::lexicographical_compare_three_way(x.begin(), x.end(),
                                                y.begin(), y.end());
}

}  // namespace

Result<Stage1PartialResult> MineStage1Partial(const GraphPartition& part,
                                              const Stage1PartialConfig& config,
                                              ThreadPool& pool) {
  if (part.radius < 1) {
    return Status::InvalidArgument(
        StrCat("partition halo radius ", part.radius,
               " cannot cover the spider radius 1"));
  }
  if (config.min_support < 1) {
    return Status::InvalidArgument(
        StrCat("min_support must be >= 1, got ", config.min_support));
  }
  if (config.max_star_leaves < 0 || config.max_spiders < 0) {
    return Status::InvalidArgument(
        "max_star_leaves and max_spiders must be >= 0");
  }

  // Local threshold 1: every star with an anchor anywhere in the halo'd
  // subgraph. Sigma and the global budget CANNOT be applied here — a star
  // below sigma locally may be frequent globally, and the budget is a
  // prefix of the global canonical order. Both are applied at merge.
  StarMinerConfig local;
  local.min_support = 1;
  local.max_leaves = config.max_star_leaves;
  local.max_spiders = 0;
  local.shard_grain = config.shard_grain;
  SM_ASSIGN_OR_RETURN(StarMineResult mined,
                      MineStarSpiders(part.graph, local, pool));
  if (mined.truncated) {
    return Status::Internal(
        "unbudgeted partial star mining reported truncation");
  }

  // Keep stars with >= 1 OWNED anchor; translate anchors to original ids.
  // Owned vertices are local ids [0, num_owned) and anchor lists are
  // ascending, so the owned anchors are a prefix, and local id i maps to
  // original id owned_begin + i (both ascending — order is preserved).
  const VertexId num_owned = static_cast<VertexId>(part.num_owned());
  Stage1PartialResult result;
  result.meta.min_support = config.min_support;
  result.meta.max_star_leaves = config.max_star_leaves;
  result.meta.max_spiders = config.max_spiders;
  result.meta.num_graph_vertices = part.parent_num_vertices;
  result.meta.graph_hash = part.parent_hash;
  result.meta.partition_index = part.partition_index;
  result.meta.num_partitions = part.num_partitions;
  result.meta.owned_begin = part.owned_begin;
  result.meta.owned_end = part.owned_end;
  result.local_stars = mined.store.size();
  std::vector<VertexId> mapped;
  for (int32_t id = 0; id < mined.store.size(); ++id) {
    std::span<const VertexId> anchors = mined.store.anchors(id);
    const size_t owned_count = static_cast<size_t>(
        std::lower_bound(anchors.begin(), anchors.end(), num_owned) -
        anchors.begin());
    if (owned_count == 0) continue;
    mapped.clear();
    mapped.reserve(owned_count);
    for (size_t i = 0; i < owned_count; ++i) {
      mapped.push_back(
          static_cast<VertexId>(part.owned_begin + anchors[i]));
    }
    result.store.Append(mined.store.head_label(id), mined.store.leaves(id),
                        mapped);
  }
  return result;
}

std::string Stage1PartialToBytes(const SpiderStore& store,
                                 const Stage1PartialMeta& meta) {
  const std::string meta_bytes = WritePartialMeta(meta, store);
  const std::span<const uint8_t> sections[kSm2pSectionCount] = {
      AsBytes(std::span<const char>(meta_bytes)),
      AsBytes(store.head_labels()),
      AsBytes(store.leaf_offsets()),
      AsBytes(store.leaf_pool()),
      AsBytes(store.anchor_offsets()),
      AsBytes(store.anchor_pool()),
  };
  return WriteSectionFile(kSm2pFormat, sections);
}

Status SaveStage1Partial(const SpiderStore& store,
                         const Stage1PartialMeta& meta,
                         const std::string& path) {
  SM_RETURN_NOT_OK(CheckSectionFileHost(kSm2pFormat));
  return binary_format::WriteFile(path, Stage1PartialToBytes(store, meta));
}

Result<std::unique_ptr<MappedStage1Partial>> MappedStage1Partial::Open(
    const std::string& path) {
  SM_ASSIGN_OR_RETURN(MappedFile mapping, MappedFile::Open(path));
  auto mapped =
      std::unique_ptr<MappedStage1Partial>(new MappedStage1Partial());
  SM_ASSIGN_OR_RETURN(mapped->file_,
                      SectionFile::Open(kSm2pFormat, std::move(mapping)));
  const SectionFile& file = mapped->file_;
  // Every section CRC is checked EAGERLY: a partial is read exactly once
  // by the merge, and Open doubles as the worker driver's output check.
  SM_RETURN_NOT_OK(file.CheckCrcs(kHeadLabels, kSm2pSectionCount));

  SM_ASSIGN_OR_RETURN(binary_format::Reader fields,
                      file.Meta(kSm2pMetaBytes));
  Stage1PartialMeta& meta = mapped->meta_;
  uint64_t n = 0, total_leaves = 0, total_anchors = 0;
  int32_t spider_radius = 0;
  fields.ReadI64(&meta.min_support);
  fields.ReadI32(&spider_radius);
  fields.ReadI32(&meta.max_star_leaves);
  fields.ReadI64(&meta.max_spiders);
  fields.ReadI64(&meta.num_graph_vertices);
  fields.ReadU64(&meta.graph_hash);
  fields.ReadI32(&meta.partition_index);
  fields.ReadI32(&meta.num_partitions);
  fields.ReadI64(&meta.owned_begin);
  fields.ReadI64(&meta.owned_end);
  fields.ReadU64(&n);
  fields.ReadU64(&total_leaves);
  fields.ReadU64(&total_anchors);
  if (spider_radius != 1) {
    return Status::IoError(StrCat("sm2p meta spider_radius is ",
                                  spider_radius, "; only 1 is supported"));
  }
  if (meta.min_support < 1 || meta.max_star_leaves < 0 ||
      meta.max_spiders < 0 || meta.num_graph_vertices < 0 ||
      meta.num_partitions < 1 ||
      meta.partition_index < 0 ||
      meta.partition_index >= meta.num_partitions || meta.owned_begin < 0 ||
      meta.owned_begin >= meta.owned_end ||
      meta.owned_end > meta.num_graph_vertices) {
    return Status::IoError("sm2p meta fields out of range");
  }

  // head_labels (kind 1) bounds n before any n + 1 is multiplied.
  const SectionShape shapes[kSm2pSectionCount] = {
      {kSm2pMetaBytes, 1},
      {n, sizeof(LabelId)},
      {n + 1, sizeof(int64_t)},
      {total_leaves, sizeof(SpiderLeafKey)},
      {n + 1, sizeof(int64_t)},
      {total_anchors, sizeof(VertexId)},
  };
  SM_RETURN_NOT_OK(file.CheckLengths(shapes));
  SM_ASSIGN_OR_RETURN(mapped->stars_,
                      BorrowStarSections(file, kLeafOffsets, {}, total_leaves,
                                         total_anchors));
  // Canonical ORDER between stars is validated during the merge walk,
  // where the comparator runs anyway.
  SM_RETURN_NOT_OK(
      CheckStars(mapped->stars_, "sm2p", meta.owned_begin, meta.owned_end));
  return mapped;
}

Result<Stage1MergeResult> MergeStage1Partials(
    const std::vector<std::string>& paths) {
  if (paths.empty()) {
    return Status::InvalidArgument("no partial artifacts to merge");
  }
  std::vector<std::unique_ptr<MappedStage1Partial>> partials;
  partials.reserve(paths.size());
  for (const std::string& path : paths) {
    SM_ASSIGN_OR_RETURN(std::unique_ptr<MappedStage1Partial> partial,
                        MappedStage1Partial::Open(path));
    partials.push_back(std::move(partial));
  }

  // Consistency: one run's partials agree on every mining parameter and
  // the parent-graph identity, and their owned ranges tile the id space.
  const Stage1PartialMeta& first = partials.front()->meta();
  if (first.num_partitions != static_cast<int32_t>(partials.size())) {
    return Status::InvalidArgument(
        StrCat("merge needs all ", first.num_partitions,
               " partials of the run, got ", partials.size()));
  }
  std::sort(partials.begin(), partials.end(),
            [](const auto& a, const auto& b) {
              return a->meta().partition_index < b->meta().partition_index;
            });
  for (size_t p = 0; p < partials.size(); ++p) {
    const Stage1PartialMeta& meta = partials[p]->meta();
    if (meta.graph_hash != first.graph_hash ||
        meta.num_graph_vertices != first.num_graph_vertices ||
        meta.min_support != first.min_support ||
        meta.max_star_leaves != first.max_star_leaves ||
        meta.max_spiders != first.max_spiders ||
        meta.num_partitions != first.num_partitions) {
      return Status::InvalidArgument(StrCat(
          "partial ", p, " disagrees with partial 0 on the mining "
          "parameters or the parent graph (mixed runs?)"));
    }
    if (meta.partition_index != static_cast<int32_t>(p)) {
      return Status::InvalidArgument(
          StrCat("duplicate or missing partition index ",
                 meta.partition_index, " among the partials"));
    }
    const int64_t expected_begin =
        p == 0 ? 0 : partials[p - 1]->meta().owned_end;
    const int64_t expected_end = p + 1 == partials.size()
                                     ? first.num_graph_vertices
                                     : meta.owned_end;
    if (meta.owned_begin != expected_begin ||
        meta.owned_end != expected_end) {
      return Status::InvalidArgument(
          StrCat("partition ", p, " owns [", meta.owned_begin, ", ",
                 meta.owned_end, "), expected it to start at ",
                 expected_begin, " and tile [0, ",
                 first.num_graph_vertices, ")"));
    }
  }

  // P-way streaming merge in canonical star order. Anchors concatenate in
  // partition order — contiguous ascending owned ranges make the result
  // globally ascending, exactly the single-node anchor list.
  struct Cursor {
    const MappedStage1Partial* partial;
    int64_t pos = 0;
  };
  std::vector<Cursor> cursors;
  cursors.reserve(partials.size());
  for (const auto& partial : partials) {
    cursors.push_back({partial.get(), 0});
  }

  // Ancestor stack of the canonical DFS: the proper prefixes of the
  // current star among the frequent set, with their global anchor counts
  // and output ids (-1 past the budget). The closedness rules replayed
  // here are the star miner's exactly:
  //  - a non-root spider is non-closed iff an ADMITTED frequent child
  //    (one more leaf appended) keeps its full anchor count;
  //  - a root is non-closed iff ANY frequent single-leaf child keeps the
  //    full label count, admitted or not (the miner computes keeps_all in
  //    the counting pass, before the budget bites).
  struct AncestorFrame {
    size_t depth;
    std::span<const SpiderLeafKey> leaves;
    int64_t total_anchors;
    int32_t out_idx;  // -1 when not admitted (past the budget)
  };
  std::vector<AncestorFrame> stack;

  Stage1MergeResult result;
  const int64_t budget = first.max_spiders;
  std::vector<size_t> contributing;
  std::vector<VertexId> anchor_scratch;
  for (;;) {
    // Find the minimum star key across cursors; gather its contributors
    // in partition order.
    const Cursor* best = nullptr;
    for (const Cursor& cursor : cursors) {
      if (cursor.pos >= cursor.partial->size()) continue;
      if (best == nullptr || CompareStars(*cursor.partial, cursor.pos,
                                          *best->partial, best->pos) < 0) {
        best = &cursor;
      }
    }
    if (best == nullptr) break;
    const MappedStage1Partial& lead = *best->partial;
    const int64_t lead_pos = best->pos;
    const LabelId label = lead.head_label(lead_pos);
    const std::span<const SpiderLeafKey> leaves = lead.leaves(lead_pos);

    contributing.clear();
    int64_t total_anchors = 0;
    for (size_t c = 0; c < cursors.size(); ++c) {
      if (cursors[c].pos >= cursors[c].partial->size()) continue;
      if (CompareStars(*cursors[c].partial, cursors[c].pos, lead,
                       lead_pos) == 0) {
        contributing.push_back(c);
        total_anchors += static_cast<int64_t>(
            cursors[c].partial->anchors(cursors[c].pos).size());
      }
    }

    if (total_anchors >= first.min_support) {
      ++result.frequent_stars;
      const bool admitted =
          budget <= 0 || result.frequent_stars <= budget;
      const size_t depth = leaves.size();
      while (!stack.empty() && stack.back().depth >= depth) stack.pop_back();
      if (depth > 0) {
        // The parent (the star minus its last leaf) must be on the stack:
        // global support is anti-monotone, so the frequent set is
        // prefix-closed and canonical order visits prefixes first.
        const bool parent_ok =
            !stack.empty() && stack.back().depth == depth - 1 &&
            std::equal(stack.back().leaves.begin(),
                       stack.back().leaves.end(), leaves.begin());
        if (!parent_ok) {
          return Status::IoError(
              StrCat("partials are not in canonical prefix-closed order "
                     "near head label ",
                     label, " (corrupted or mixed partials)"));
        }
        AncestorFrame& parent = stack.back();
        if (total_anchors == parent.total_anchors &&
            parent.out_idx >= 0 && (depth == 1 || admitted)) {
          result.store.set_closed(parent.out_idx, false);
        }
      }
      int32_t out_idx = -1;
      if (admitted) {
        anchor_scratch.clear();
        anchor_scratch.reserve(static_cast<size_t>(total_anchors));
        for (size_t c : contributing) {
          std::span<const VertexId> anchors =
              cursors[c].partial->anchors(cursors[c].pos);
          anchor_scratch.insert(anchor_scratch.end(), anchors.begin(),
                                anchors.end());
        }
        out_idx = result.store.Append(label, leaves, anchor_scratch);
      }
      stack.push_back({depth, leaves, total_anchors, out_idx});
    }

    // Advance every contributor, validating canonical order per partial.
    for (size_t c : contributing) {
      Cursor& cursor = cursors[c];
      ++cursor.pos;
      ++result.partial_entries;
      if (cursor.pos < cursor.partial->size() &&
          CompareStars(*cursor.partial, cursor.pos - 1, *cursor.partial,
                       cursor.pos) >= 0) {
        return Status::IoError(
            StrCat("partial ", c, " is not in strict canonical order at "
                   "entry ", cursor.pos, " (corrupted partial)"));
      }
    }
  }

  result.meta.min_support = first.min_support;
  result.meta.max_star_leaves = first.max_star_leaves;
  result.meta.max_spiders = first.max_spiders;
  result.meta.num_graph_vertices = first.num_graph_vertices;
  result.meta.graph_hash = first.graph_hash;
  result.meta.truncated = budget > 0 && result.frequent_stars > budget;
  return result;
}

Result<Stage1MergeStats> MergeStage1PartialsToFile(
    const std::vector<std::string>& paths, const std::string& out_path) {
  SM_ASSIGN_OR_RETURN(Stage1MergeResult merged, MergeStage1Partials(paths));
  // The CSR anchor index is deterministic from the store alone, so the
  // merged .sm2 needs no graph pass at all.
  SpiderIndex index(&merged.store, merged.meta.num_graph_vertices);
  SM_RETURN_NOT_OK(
      SaveStage1Sm2(merged.store, index, merged.meta, out_path));
  Stage1MergeStats stats;
  stats.merged_spiders = merged.store.size();
  stats.frequent_stars = merged.frequent_stars;
  stats.total_anchors = merged.store.TotalAnchors();
  stats.truncated = merged.meta.truncated;
  return stats;
}

}  // namespace spidermine
