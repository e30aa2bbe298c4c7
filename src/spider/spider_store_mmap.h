#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/result.h"
#include "graph/section_file.h"
#include "spider/spider_index.h"
#include "spider/spider_store.h"

/// \file spider_store_mmap.h
/// The zero-copy on-disk Stage I artifact: format `.sm2` (magic "SMS2").
///
/// `.sm2` lays the store's columns (and the CSR anchor index) on disk
/// exactly as they live in memory, so nothing is decoded or copied at
/// load: fixed-width little-endian arrays,
/// each section start padded to 64-byte alignment, so loading is an
/// `mmap` + header check and the arrays are used in place via the
/// borrowed-span modes of SpiderStore/SpiderIndex. N replicas on one box
/// then share one page-cache copy instead of N heap copies.
///
/// The file is a section list over the shared container of
/// graph/section_file.h (magic "SMS2", version 1).
///
/// Sections, in fixed order (kind = index):
///   0 meta            fixed-width Stage1Meta + n/total_leaves/total_anchors
///   1 head_labels     n x int32
///   2 closed          n x uint8
///   3 leaf_offsets    (n+1) x int64
///   4 leaf_pool       total_leaves x {int32 edge label, int32 leaf label}
///   5 anchor_offsets  (n+1) x int64
///   6 anchor_pool     total_anchors x int32
///   7 index_offsets   (num_graph_vertices+1) x int64   (CSR SpiderIndex)
///   8 index_ids       total_anchors x int32
///
/// Validation contract: `Open` checks the header CRC, the section-table
/// geometry (order, alignment, bounds, exact file end) and the meta
/// section, and structurally validates the three offset arrays
/// (monotonic, 0-based, ending at the pool sizes) — everything needed so
/// no span handed out can read out of bounds. The bulk pool sections are
/// CRC-validated LAZILY, on the first call to `EnsureValidated()`
/// (MiningSession invokes it before the first query touches the data),
/// so opening a cold multi-GB artifact stays in the milliseconds.
///
/// The format is little-endian only: on a big-endian host `Open` and
/// `SaveStage1Sm2` return kIoError.

namespace spidermine {

inline constexpr char kSm2Magic[4] = {'S', 'M', 'S', '2'};
inline constexpr uint32_t kSm2FormatVersion = 1;
inline constexpr uint32_t kSm2SectionCount = 9;

/// Provenance of a saved Stage I artifact: the mining parameters that
/// produced the spider set (MiningSession::LoadStage1 restores them as the
/// session's floor) plus the identity of the graph it was mined over (size
/// and content hash, so an artifact is never silently applied to a
/// different network).
struct Stage1Meta {
  int64_t min_support = 2;
  int32_t max_star_leaves = 8;
  int64_t max_spiders = 0;
  int64_t num_graph_vertices = 0;
  /// LabeledGraph::ContentHash() of the mined network.
  /// MiningSession::SaveStage1 always records it and LoadStage1 requires
  /// an exact match, so an artifact can never be served against a
  /// different graph (callers building metas by hand must fill it in).
  uint64_t graph_hash = 0;
  /// True when a spider budget or time budget truncated the mined set.
  bool truncated = false;
};

/// Checks the leading bytes \p head (the format magic) of the Stage I
/// artifact at \p path: Ok for `.sm2`, kIoError otherwise. Files of the
/// retired copy-load format (magic "SMS1") get a message that says to
/// re-run `spidermine stage1`.
Status CheckStage1Magic(const std::string& path, std::string_view head);

// The on-disk arrays are reused in place, so the element types must have
// the exact width and layout the format promises.
static_assert(sizeof(LabelId) == 4 && sizeof(VertexId) == 4);
static_assert(sizeof(SpiderLeafKey) == 8 &&
                  std::is_standard_layout_v<SpiderLeafKey>,
              "SpiderLeafKey must be two packed int32s for the .sm2 layout");

/// A borrowed store over the star sections both `.sm2` and `.sm2p` carry:
/// head labels at kind 1, and leaf offsets, leaf pool, anchor offsets and
/// anchor pool at the four kinds from \p leaf_offsets_kind, of a file whose
/// lengths are checked. \p closed is empty for `.sm2p`, which has no closed
/// column (its stores must not be asked closed()). Checks the star count
/// and both offsets arrays.
Result<SpiderStore> BorrowStarSections(const SectionFile& file,
                                       uint32_t leaf_offsets_kind,
                                       std::span<const uint8_t> closed,
                                       uint64_t total_leaves,
                                       uint64_t total_anchors);

/// The per-star content check of `.sm2` and `.sm2p`: a non-negative head
/// label, sorted non-negative leaf keys, and non-empty, strictly ascending
/// anchors inside [\p lo, \p hi). \p format prefixes error messages.
Status CheckStars(const SpiderStore& stars, std::string_view format,
                  int64_t lo, int64_t hi);

/// Serializes \p store + \p index + \p meta to `.sm2` bytes.
/// Deterministic: identical inputs produce identical bytes.
std::string Stage1ToSm2Bytes(const SpiderStore& store,
                             const SpiderIndex& index,
                             const Stage1Meta& meta);

/// Writes the `.sm2` artifact to \p path. Overwrites.
Status SaveStage1Sm2(const SpiderStore& store, const SpiderIndex& index,
                     const Stage1Meta& meta, const std::string& path);

/// An opened `.sm2` artifact: owns the mapping and exposes a borrowed-span
/// SpiderStore/SpiderIndex over it. Immutable after Open; EnsureValidated
/// is thread-safe and may be called concurrently.
class MappedStage1 {
 public:
  /// Opens and eagerly validates the header, section geometry, meta and
  /// offset arrays (see the file comment). kIoError on any mismatch.
  static Result<std::unique_ptr<MappedStage1>> Open(const std::string& path);

  /// The artifact's provenance (mining parameters, graph identity).
  const Stage1Meta& meta() const { return meta_; }

  /// The spider store, borrowing the mapped columns. Valid for the
  /// lifetime of this object.
  const SpiderStore& store() const { return store_; }

  /// The CSR anchor index, borrowing the mapped arrays.
  const SpiderIndex& index() const { return *index_; }

  /// True when the bytes are an actual mmap (page-cache shared) rather
  /// than MappedFile's heap-buffer fallback.
  bool is_mapped() const { return file_.is_mapped(); }

  /// Bytes of the mapped artifact.
  int64_t file_bytes() const { return static_cast<int64_t>(file_.size()); }

  /// First-touch validation of the bulk sections: CRC-32 of every data
  /// section plus range checks of the pool contents (anchors inside the
  /// declared graph, index ids inside the store, per-spider sortedness).
  /// Runs once; later calls return the cached Status. Thread-safe.
  Status EnsureValidated() const;

 private:
  MappedStage1() = default;

  Status ValidateLazySections() const;

  SectionFile file_;
  Stage1Meta meta_;
  SpiderStore store_;  // borrowed-span mode over file_
  std::unique_ptr<SpiderIndex> index_;  // borrowed-span mode over file_

  mutable std::once_flag validate_once_;
  mutable Status validate_status_;
};

}  // namespace spidermine
