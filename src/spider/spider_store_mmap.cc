#include "spider/spider_store_mmap.h"

#include <limits>
#include <string_view>
#include <utility>

#include "common/strings.h"
#include "graph/binary_format.h"

namespace spidermine {

namespace {

using binary_format::AppendI32;
using binary_format::AppendI64;
using binary_format::AppendU64;

/// Fixed byte length of the meta section (see WriteMetaSection).
constexpr uint64_t kMetaSectionBytes = 72;

constexpr const char* kSectionNames[kSm2SectionCount] = {
    "meta",         "head_labels", "closed",      "leaf_offsets",
    "leaf_pool",    "anchor_offsets", "anchor_pool", "index_offsets",
    "index_ids"};

constexpr SectionFormat kSm2Format{std::string_view(kSm2Magic, 4),
                                   kSm2FormatVersion, "sm2", kSectionNames};

enum SectionKind : uint32_t {
  kMeta = 0,
  kHeadLabels = 1,
  kClosed = 2,
  kLeafOffsets = 3,
  kLeafPool = 4,
  kAnchorOffsets = 5,
  kAnchorPool = 6,
  kIndexOffsets = 7,
  kIndexIds = 8,
};

std::string WriteMetaSection(const Stage1Meta& meta,
                             const SpiderStore& store) {
  std::string out;
  AppendI64(&out, meta.min_support);
  AppendI32(&out, 1);  // spider radius: every store holds radius-1 stars
  AppendI32(&out, meta.max_star_leaves);
  AppendI64(&out, meta.max_spiders);
  AppendI64(&out, meta.num_graph_vertices);
  AppendU64(&out, meta.graph_hash);
  AppendU64(&out, meta.truncated ? 1 : 0);  // a flag byte + 7 pad bytes
  AppendU64(&out, static_cast<uint64_t>(store.size()));
  AppendU64(&out, static_cast<uint64_t>(store.TotalLeaves()));
  AppendU64(&out, static_cast<uint64_t>(store.TotalAnchors()));
  return out;
}

}  // namespace

Result<SpiderStore> BorrowStarSections(const SectionFile& file,
                                       uint32_t leaf_offsets_kind,
                                       std::span<const uint8_t> closed,
                                       uint64_t total_leaves,
                                       uint64_t total_anchors) {
  const std::span<const LabelId> head_labels = file.Span<LabelId>(1);
  if (head_labels.size() >
      static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
    return Status::IoError(StrCat("star count ", head_labels.size(),
                                  " exceeds the int32 id space"));
  }
  SM_RETURN_NOT_OK(file.CheckOffsets(leaf_offsets_kind, total_leaves));
  SM_RETURN_NOT_OK(file.CheckOffsets(leaf_offsets_kind + 2, total_anchors));
  return SpiderStore::Borrowed(
      head_labels, closed, file.Span<int64_t>(leaf_offsets_kind),
      file.Span<SpiderLeafKey>(leaf_offsets_kind + 1),
      file.Span<int64_t>(leaf_offsets_kind + 2),
      file.Span<VertexId>(leaf_offsets_kind + 3));
}

Status CheckStars(const SpiderStore& stars, std::string_view format,
                  int64_t lo, int64_t hi) {
  for (int32_t id = 0; id < stars.size(); ++id) {
    if (stars.head_label(id) < 0) {
      return Status::IoError(
          StrCat(format, " negative head label on star ", id));
    }
    const std::span<const SpiderLeafKey> leaves = stars.leaves(id);
    for (size_t j = 0; j < leaves.size(); ++j) {
      if (leaves[j].first < 0 || leaves[j].second < 0 ||
          (j > 0 && leaves[j] < leaves[j - 1])) {
        return Status::IoError(
            StrCat(format, " star ", id, " leaf keys invalid or unsorted"));
      }
    }
    const std::span<const VertexId> anchors = stars.anchors(id);
    if (anchors.empty()) {
      return Status::IoError(StrCat(format, " star ", id, " has no anchors"));
    }
    for (size_t j = 0; j < anchors.size(); ++j) {
      if (anchors[j] < lo || anchors[j] >= hi ||
          (j > 0 && anchors[j] <= anchors[j - 1])) {
        return Status::IoError(StrCat(format, " star ", id,
                                      " anchors unsorted or outside [", lo,
                                      ", ", hi, ")"));
      }
    }
  }
  return Status::Ok();
}

std::string Stage1ToSm2Bytes(const SpiderStore& store,
                             const SpiderIndex& index,
                             const Stage1Meta& meta) {
  const std::string meta_bytes = WriteMetaSection(meta, store);
  const std::span<const uint8_t> sections[kSm2SectionCount] = {
      AsBytes(std::span<const char>(meta_bytes)),
      AsBytes(store.head_labels()),
      store.closed_flags(),
      AsBytes(store.leaf_offsets()),
      AsBytes(store.leaf_pool()),
      AsBytes(store.anchor_offsets()),
      AsBytes(store.anchor_pool()),
      AsBytes(index.offsets()),
      AsBytes(index.ids()),
  };
  return WriteSectionFile(kSm2Format, sections);
}

Status CheckStage1Magic(const std::string& path, std::string_view head) {
  const std::string_view magic = head.substr(0, 4);
  if (magic == std::string_view(kSm2Magic, 4)) return Status::Ok();
  if (magic == "SMS1") {
    return Status::IoError(
        StrCat("'", path, "' is a Stage I artifact in the retired .sm1 "
               "format; re-run `spidermine stage1` to write a .sm2"));
  }
  return Status::IoError(
      StrCat("'", path,
             "' is not a stage1 artifact (unrecognized format magic)"));
}

Status SaveStage1Sm2(const SpiderStore& store, const SpiderIndex& index,
                     const Stage1Meta& meta, const std::string& path) {
  SM_RETURN_NOT_OK(CheckSectionFileHost(kSm2Format));
  return binary_format::WriteFile(path,
                                  Stage1ToSm2Bytes(store, index, meta));
}

Result<std::unique_ptr<MappedStage1>> MappedStage1::Open(
    const std::string& path) {
  SM_ASSIGN_OR_RETURN(MappedFile mapping, MappedFile::Open(path));
  SM_RETURN_NOT_OK(CheckStage1Magic(
      path, {reinterpret_cast<const char*>(mapping.bytes().data()),
             mapping.size()}));
  auto mapped = std::unique_ptr<MappedStage1>(new MappedStage1());
  SM_ASSIGN_OR_RETURN(mapped->file_,
                      SectionFile::Open(kSm2Format, std::move(mapping)));
  const SectionFile& file = mapped->file_;

  // Meta section: fixed width, CRC'd eagerly (it is 72 bytes).
  SM_ASSIGN_OR_RETURN(binary_format::Reader fields,
                      file.Meta(kMetaSectionBytes));
  Stage1Meta& meta = mapped->meta_;
  uint64_t truncated = 0, n = 0, total_leaves = 0, total_anchors = 0;
  int32_t spider_radius = 0;
  fields.ReadI64(&meta.min_support);
  fields.ReadI32(&spider_radius);
  fields.ReadI32(&meta.max_star_leaves);
  fields.ReadI64(&meta.max_spiders);
  fields.ReadI64(&meta.num_graph_vertices);
  fields.ReadU64(&meta.graph_hash);
  fields.ReadU64(&truncated);
  fields.ReadU64(&n);
  fields.ReadU64(&total_leaves);
  fields.ReadU64(&total_anchors);
  meta.truncated = (truncated & 0xFF) != 0;
  if (spider_radius != 1) {
    return Status::IoError(StrCat("sm2 meta spider_radius is ",
                                  spider_radius, "; only 1 is supported"));
  }
  if (meta.min_support < 1 || meta.max_star_leaves < 0 || meta.max_spiders < 0 ||
      meta.num_graph_vertices < 0) {
    return Status::IoError("sm2 meta fields out of range");
  }

  // Tie every section to the meta counts before any span is formed;
  // head_labels (kind 1) bounds n before any n + 1 is multiplied.
  const SectionShape shapes[kSm2SectionCount] = {
      {kMetaSectionBytes, 1},
      {n, sizeof(LabelId)},
      {n, 1},
      {n + 1, sizeof(int64_t)},
      {total_leaves, sizeof(SpiderLeafKey)},
      {n + 1, sizeof(int64_t)},
      {total_anchors, sizeof(VertexId)},
      {static_cast<uint64_t>(meta.num_graph_vertices) + 1, sizeof(int64_t)},
      {total_anchors, sizeof(int32_t)},
  };
  SM_RETURN_NOT_OK(file.CheckLengths(shapes));

  // Offset arrays establish every per-spider span, so they are validated
  // structurally up front — they are the small sections. The bulk pools
  // stay lazy (EnsureValidated).
  SM_ASSIGN_OR_RETURN(
      mapped->store_,
      BorrowStarSections(file, kLeafOffsets, file.Span<uint8_t>(kClosed),
                         total_leaves, total_anchors));
  SM_RETURN_NOT_OK(file.CheckOffsets(kIndexOffsets, total_anchors));
  mapped->index_ = std::make_unique<SpiderIndex>(
      &mapped->store_, file.Span<int64_t>(kIndexOffsets),
      file.Span<int32_t>(kIndexIds));
  return mapped;
}

Status MappedStage1::EnsureValidated() const {
  std::call_once(validate_once_,
                 [this] { validate_status_ = ValidateLazySections(); });
  return validate_status_;
}

Status MappedStage1::ValidateLazySections() const {
  // CRC every data section (meta was checked at open).
  SM_RETURN_NOT_OK(file_.CheckCrcs(kHeadLabels, kSm2SectionCount));
  // Content range checks: with CRCs intact these only reject artifacts
  // whose WRITER was broken, but they are one cheap pass and keep the
  // promise that a damaged artifact can never feed the growth engine's
  // binary searches out-of-contract data.
  SM_RETURN_NOT_OK(CheckStars(store_, "sm2", 0, meta_.num_graph_vertices));
  const int32_t n = static_cast<int32_t>(store_.size());
  for (int32_t id : index_->ids()) {
    if (id < 0 || id >= n) {
      return Status::IoError(
          StrCat("sm2 index id ", id, " outside the ", n, "-spider store"));
    }
  }
  return Status::Ok();
}

}  // namespace spidermine
