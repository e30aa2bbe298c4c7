#include "spider/spider_store_mmap.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>

#include "common/crc32.h"
#include "common/strings.h"
#include "graph/binary_format.h"

namespace spidermine {

namespace {

using binary_format::AppendI32;
using binary_format::AppendI64;
using binary_format::AppendU32;
using binary_format::AppendU64;
using binary_format::AppendU8;

/// Fixed byte length of the meta section (see WriteMetaSection).
constexpr uint64_t kMetaSectionBytes = 72;
/// Bytes of the fixed header ahead of the section table.
constexpr size_t kSm2Preamble = 16;
/// One section-table entry.
constexpr size_t kSm2TableEntryBytes = 32;
/// Header bytes covered by the header CRC.
constexpr size_t kSm2HeaderBytes =
    kSm2Preamble + kSm2SectionCount * kSm2TableEntryBytes;

const char* kSectionName[kSm2SectionCount] = {
    "meta",         "head_labels", "closed",      "leaf_offsets",
    "leaf_pool",    "anchor_offsets", "anchor_pool", "index_offsets",
    "index_ids"};

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

void PadTo(std::string* out, size_t align) {
  while (out->size() % align != 0) out->push_back('\0');
}

template <typename T>
std::span<const uint8_t> AsBytes(std::span<const T> data) {
  return {reinterpret_cast<const uint8_t*>(data.data()), data.size_bytes()};
}

std::string WriteMetaSection(const Stage1Meta& meta, uint64_t n,
                             uint64_t total_leaves, uint64_t total_anchors) {
  std::string out;
  AppendI64(&out, meta.min_support);
  AppendI32(&out, meta.spider_radius);
  AppendI32(&out, meta.max_star_leaves);
  AppendI64(&out, meta.max_spiders);
  AppendI64(&out, meta.num_graph_vertices);
  AppendU64(&out, meta.graph_hash);
  AppendU8(&out, meta.truncated ? 1 : 0);
  for (int i = 0; i < 7; ++i) AppendU8(&out, 0);  // pad to 8
  AppendU64(&out, n);
  AppendU64(&out, total_leaves);
  AppendU64(&out, total_anchors);
  return out;
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian host (gated by Sm2HostSupported)
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

template <typename T>
std::span<const T> SectionSpan(std::span<const uint8_t> file, uint64_t offset,
                               uint64_t length) {
  return {reinterpret_cast<const T*>(file.data() + offset),
          static_cast<size_t>(length / sizeof(T))};
}

/// Checks one offsets array: starts at 0, non-decreasing, ends at
/// \p expected_total.
Status CheckOffsets(std::span<const int64_t> offsets, int64_t expected_total,
                    const char* what) {
  if (offsets.empty() || offsets.front() != 0) {
    return Status::IoError(StrCat("sm2 ", what, " does not start at 0"));
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return Status::IoError(
          StrCat("sm2 ", what, " not monotonic at entry ", i));
    }
  }
  if (offsets.back() != expected_total) {
    return Status::IoError(StrCat("sm2 ", what, " ends at ", offsets.back(),
                                  ", expected ", expected_total));
  }
  return Status::Ok();
}

}  // namespace

std::string Stage1ToSm2Bytes(const SpiderStore& store,
                             const SpiderIndex& index,
                             const Stage1Meta& meta) {
  const uint64_t n = static_cast<uint64_t>(store.size());
  const std::string meta_bytes =
      WriteMetaSection(meta, n, static_cast<uint64_t>(store.TotalLeaves()),
                       static_cast<uint64_t>(store.TotalAnchors()));

  const std::span<const uint8_t> section_bytes[kSm2SectionCount] = {
      {reinterpret_cast<const uint8_t*>(meta_bytes.data()),
       meta_bytes.size()},
      AsBytes(store.head_labels()),
      store.closed_flags(),
      AsBytes(store.leaf_offsets()),
      AsBytes(store.leaf_pool()),
      AsBytes(store.anchor_offsets()),
      AsBytes(store.anchor_pool()),
      AsBytes(index.offsets()),
      AsBytes(index.ids()),
  };

  // Lay the sections out: each starts at the next 64-byte boundary after
  // the header (and after its predecessor); the file ends exactly at the
  // last section's end.
  uint64_t offsets[kSm2SectionCount];
  uint64_t cursor = kSm2HeaderBytes + 4;  // + header CRC
  for (uint32_t kind = 0; kind < kSm2SectionCount; ++kind) {
    cursor = (cursor + kSm2SectionAlign - 1) / kSm2SectionAlign *
             kSm2SectionAlign;
    offsets[kind] = cursor;
    cursor += section_bytes[kind].size();
  }

  std::string out;
  out.reserve(static_cast<size_t>(cursor));
  out.append(kSm2Magic, 4);
  AppendU32(&out, kSm2FormatVersion);
  AppendU32(&out, kSm2SectionCount);
  AppendU32(&out, 0);  // reserved
  for (uint32_t kind = 0; kind < kSm2SectionCount; ++kind) {
    AppendU32(&out, kind);
    AppendU32(&out, 0);  // reserved
    AppendU64(&out, offsets[kind]);
    AppendU64(&out, section_bytes[kind].size());
    AppendU32(&out, Crc32(section_bytes[kind]));
    AppendU32(&out, 0);  // reserved
  }
  AppendU32(&out, Crc32(std::string_view(out.data(), kSm2HeaderBytes)));
  for (uint32_t kind = 0; kind < kSm2SectionCount; ++kind) {
    PadTo(&out, kSm2SectionAlign);
    out.append(reinterpret_cast<const char*>(section_bytes[kind].data()),
               section_bytes[kind].size());
  }
  return out;
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
  if (!Sm2HostSupported()) {
    return Status::IoError(
        "the zero-copy .sm2 format is little-endian only and cannot be "
        "written on this host");
  }
  return binary_format::WriteFile(path,
                                  Stage1ToSm2Bytes(store, index, meta));
}

Result<std::unique_ptr<MappedStage1>> MappedStage1::Open(
    const std::string& path) {
  if (!Sm2HostSupported()) {
    return Status::IoError(
        "the zero-copy .sm2 format is little-endian only and cannot be "
        "mapped on this host");
  }
  SM_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
  const std::span<const uint8_t> bytes = file.bytes();
  SM_RETURN_NOT_OK(CheckStage1Magic(
      path, std::string_view(reinterpret_cast<const char*>(bytes.data()),
                             std::min<size_t>(bytes.size(), 4))));
  if (bytes.size() < kSm2HeaderBytes + 4) {
    return Status::IoError(StrCat("sm2 file too short: ", bytes.size(),
                                  " bytes < ", kSm2HeaderBytes + 4,
                                  "-byte header"));
  }
  const uint32_t version = LoadU32(bytes.data() + 4);
  if (version != kSm2FormatVersion) {
    return Status::IoError(
        StrCat("unsupported sm2 format version ", version));
  }
  const uint32_t section_count = LoadU32(bytes.data() + 8);
  if (section_count != kSm2SectionCount) {
    return Status::IoError(StrCat("sm2 section count ", section_count,
                                  " != expected ", kSm2SectionCount));
  }
  const uint32_t header_crc = LoadU32(bytes.data() + kSm2HeaderBytes);
  if (Crc32(bytes.subspan(0, kSm2HeaderBytes)) != header_crc) {
    return Status::IoError("sm2 header checksum mismatch (corrupted file)");
  }

  auto mapped = std::unique_ptr<MappedStage1>(new MappedStage1());
  mapped->file_ = std::move(file);
  const std::span<const uint8_t> data = mapped->file_.bytes();

  // Section table: fixed kind order, 64-byte aligned, ascending,
  // non-overlapping, inside the file, and the file ends exactly at the
  // last section's end (so every non-padding byte is CRC-covered).
  mapped->sections_.resize(kSm2SectionCount);
  uint64_t prev_end = kSm2HeaderBytes + 4;
  for (uint32_t kind = 0; kind < kSm2SectionCount; ++kind) {
    const uint8_t* entry =
        data.data() + kSm2Preamble + kind * kSm2TableEntryBytes;
    Section& section = mapped->sections_[kind];
    section.kind = LoadU32(entry);
    section.offset = LoadU64(entry + 8);
    section.length = LoadU64(entry + 16);
    section.crc = LoadU32(entry + 24);
    if (section.kind != kind) {
      return Status::IoError(StrCat("sm2 section ", kind,
                                    " has unexpected kind ", section.kind));
    }
    if (section.offset % kSm2SectionAlign != 0) {
      return Status::IoError(StrCat("sm2 section ", kSectionName[kind],
                                    " misaligned at offset ",
                                    section.offset));
    }
    if (section.offset < prev_end ||
        section.offset > data.size() ||
        section.length > data.size() - section.offset) {
      return Status::IoError(StrCat("sm2 section ", kSectionName[kind],
                                    " out of bounds (offset ",
                                    section.offset, ", length ",
                                    section.length, ", file ", data.size(),
                                    " bytes)"));
    }
    prev_end = section.offset + section.length;
  }
  if (prev_end != data.size()) {
    return Status::IoError(StrCat("sm2 trailing bytes: sections end at ",
                                  prev_end, ", file has ", data.size()));
  }

  // Meta section: fixed width, CRC'd eagerly (it is 72 bytes).
  const Section& meta_section = mapped->sections_[kMeta];
  if (meta_section.length != kMetaSectionBytes) {
    return Status::IoError(StrCat("sm2 meta section has ",
                                  meta_section.length, " bytes, expected ",
                                  kMetaSectionBytes));
  }
  const uint8_t* m = data.data() + meta_section.offset;
  if (Crc32(data.subspan(meta_section.offset, kMetaSectionBytes)) !=
      meta_section.crc) {
    return Status::IoError("sm2 meta section checksum mismatch");
  }
  Stage1Meta& meta = mapped->meta_;
  meta.min_support = static_cast<int64_t>(LoadU64(m));
  meta.spider_radius = static_cast<int32_t>(LoadU32(m + 8));
  meta.max_star_leaves = static_cast<int32_t>(LoadU32(m + 12));
  meta.max_spiders = static_cast<int64_t>(LoadU64(m + 16));
  meta.num_graph_vertices = static_cast<int64_t>(LoadU64(m + 24));
  meta.graph_hash = LoadU64(m + 32);
  meta.truncated = m[40] != 0;
  const uint64_t n = LoadU64(m + 48);
  const uint64_t total_leaves = LoadU64(m + 56);
  const uint64_t total_anchors = LoadU64(m + 64);
  if (meta.min_support < 1 || meta.spider_radius < 1 ||
      meta.max_star_leaves < 0 || meta.max_spiders < 0 ||
      meta.num_graph_vertices < 0) {
    return Status::IoError("sm2 meta fields out of range");
  }
  if (n > static_cast<uint64_t>(std::numeric_limits<int32_t>::max())) {
    return Status::IoError(StrCat("sm2 spider count ", n,
                                  " exceeds the int32 id space"));
  }

  // Exact length checks tie every array section to the meta counts before
  // any span is formed.
  const uint64_t expected_length[kSm2SectionCount] = {
      kMetaSectionBytes,
      n * sizeof(LabelId),
      n,
      (n + 1) * sizeof(int64_t),
      total_leaves * sizeof(SpiderLeafKey),
      (n + 1) * sizeof(int64_t),
      total_anchors * sizeof(VertexId),
      (static_cast<uint64_t>(meta.num_graph_vertices) + 1) * sizeof(int64_t),
      total_anchors * sizeof(int32_t),
  };
  for (uint32_t kind = 1; kind < kSm2SectionCount; ++kind) {
    if (mapped->sections_[kind].length != expected_length[kind]) {
      return Status::IoError(
          StrCat("sm2 section ", kSectionName[kind], " has ",
                 mapped->sections_[kind].length, " bytes, expected ",
                 expected_length[kind]));
    }
  }

  const auto span_of = [&](uint32_t kind, auto tag) {
    using T = decltype(tag);
    const Section& s = mapped->sections_[kind];
    return SectionSpan<T>(data, s.offset, s.length);
  };
  std::span<const LabelId> head_labels = span_of(kHeadLabels, LabelId{});
  std::span<const uint8_t> closed = span_of(kClosed, uint8_t{});
  std::span<const int64_t> leaf_offsets = span_of(kLeafOffsets, int64_t{});
  std::span<const SpiderLeafKey> leaf_pool =
      span_of(kLeafPool, SpiderLeafKey{});
  std::span<const int64_t> anchor_offsets =
      span_of(kAnchorOffsets, int64_t{});
  std::span<const VertexId> anchor_pool = span_of(kAnchorPool, VertexId{});
  std::span<const int64_t> index_offsets = span_of(kIndexOffsets, int64_t{});
  std::span<const int32_t> index_ids = span_of(kIndexIds, int32_t{});

  // Offset arrays establish every per-spider span, so they are validated
  // structurally up front — they are the small sections. The bulk pools
  // stay lazy (EnsureValidated).
  SM_RETURN_NOT_OK(CheckOffsets(leaf_offsets,
                                static_cast<int64_t>(total_leaves),
                                "leaf_offsets"));
  SM_RETURN_NOT_OK(CheckOffsets(anchor_offsets,
                                static_cast<int64_t>(total_anchors),
                                "anchor_offsets"));
  SM_RETURN_NOT_OK(CheckOffsets(index_offsets,
                                static_cast<int64_t>(total_anchors),
                                "index_offsets"));

  mapped->store_ = SpiderStore::Borrowed(head_labels, closed, leaf_offsets,
                                         leaf_pool, anchor_offsets,
                                         anchor_pool);
  mapped->index_ = std::make_unique<SpiderIndex>(&mapped->store_,
                                                 index_offsets, index_ids);
  return mapped;
}

Status MappedStage1::EnsureValidated() const {
  std::call_once(validate_once_,
                 [this] { validate_status_ = ValidateLazySections(); });
  return validate_status_;
}

Status MappedStage1::ValidateLazySections() const {
  const std::span<const uint8_t> data = file_.bytes();
  // CRC every data section (meta was checked at open).
  for (uint32_t kind = kHeadLabels; kind < kSm2SectionCount; ++kind) {
    const Section& section = sections_[kind];
    if (Crc32(data.subspan(section.offset, section.length)) != section.crc) {
      return Status::IoError(StrCat("sm2 section ", kSectionName[kind],
                                    " checksum mismatch (corrupted or "
                                    "tampered artifact)"));
    }
  }
  // Content range checks: with CRCs intact these only reject artifacts
  // whose WRITER was broken, but they are one cheap pass and keep the
  // promise that a damaged artifact can never feed the growth engine's
  // binary searches out-of-contract data.
  const int32_t n = static_cast<int32_t>(store_.size());
  for (int32_t id = 0; id < n; ++id) {
    if (store_.head_label(id) < 0) {
      return Status::IoError(StrCat("sm2 negative head label on spider ",
                                    id));
    }
    std::span<const SpiderLeafKey> leaves = store_.leaves(id);
    for (size_t j = 0; j < leaves.size(); ++j) {
      if (leaves[j].first < 0 || leaves[j].second < 0 ||
          (j > 0 && leaves[j] < leaves[j - 1])) {
        return Status::IoError(
            StrCat("sm2 spider ", id, " leaf keys invalid or unsorted"));
      }
    }
    std::span<const VertexId> anchors = store_.anchors(id);
    if (anchors.empty()) {
      return Status::IoError(StrCat("sm2 spider ", id, " has no anchors"));
    }
    for (size_t j = 0; j < anchors.size(); ++j) {
      if (anchors[j] < 0 ||
          static_cast<int64_t>(anchors[j]) >= meta_.num_graph_vertices ||
          (j > 0 && anchors[j] <= anchors[j - 1])) {
        return Status::IoError(StrCat("sm2 spider ", id,
                                      " anchors invalid, unsorted or "
                                      "outside the declared ",
                                      meta_.num_graph_vertices,
                                      "-vertex graph"));
      }
    }
  }
  for (int32_t id : index_->ids()) {
    if (id < 0 || id >= n) {
      return Status::IoError(
          StrCat("sm2 index id ", id, " outside the ", n, "-spider store"));
    }
  }
  return Status::Ok();
}

}  // namespace spidermine
