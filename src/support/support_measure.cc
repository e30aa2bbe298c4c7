#include "support/support_measure.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>

#include "common/stamp_set.h"

namespace spidermine {

std::string_view SupportMeasureName(SupportMeasureKind kind) {
  switch (kind) {
    case SupportMeasureKind::kEmbeddingCount:
      return "embedding-count";
    case SupportMeasureKind::kMinImage:
      return "min-image";
    case SupportMeasureKind::kGreedyMisVertex:
      return "greedy-mis-vertex";
    case SupportMeasureKind::kGreedyMisEdge:
      return "greedy-mis-edge";
    case SupportMeasureKind::kTransaction:
      return "transaction";
    case SupportMeasureKind::kHomomorphism:
      return "homomorphism";
  }
  return "?";
}

namespace {

/// The graph-vertex set every support fold on a thread reuses.
StampSet& ThreadVertexMarks() {
  thread_local StampSet marks;
  return marks;
}

int64_t MinImageSupport(const Pattern& pattern,
                        const OccurrenceList& embeddings) {
  if (embeddings.empty()) return 0;
  StampSet& images = ThreadVertexMarks();
  int64_t min_images = INT64_MAX;
  for (VertexId pv = 0; pv < pattern.NumVertices(); ++pv) {
    images.Clear();
    int64_t count = 0;
    for (OccurrenceList::Row e : embeddings) count += images.Insert(e[pv]);
    min_images = std::min(min_images, count);
  }
  return min_images;
}

int64_t GreedyMisVertexSupport(const OccurrenceList& embeddings) {
  StampSet& used = ThreadVertexMarks();
  used.Clear();
  int64_t count = 0;
  for (OccurrenceList::Row e : embeddings) {
    if (std::any_of(e.begin(), e.end(),
                    [&used](VertexId v) { return used.Contains(v); })) {
      continue;
    }
    for (VertexId v : e) used.Insert(v);
    ++count;
  }
  return count;
}

int64_t GreedyMisEdgeSupport(const Pattern& pattern,
                             const OccurrenceList& embeddings) {
  auto pattern_edges = pattern.Edges();
  auto edge_key = [](VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
  };
  std::unordered_set<uint64_t> used;
  int64_t count = 0;
  for (OccurrenceList::Row e : embeddings) {
    bool conflict = false;
    for (const auto& [pu, pv] : pattern_edges) {
      if (used.count(edge_key(e[pu], e[pv]))) {
        conflict = true;
        break;
      }
    }
    if (conflict) continue;
    for (const auto& [pu, pv] : pattern_edges) {
      used.insert(edge_key(e[pu], e[pv]));
    }
    ++count;
  }
  return count;
}

/// True when the sample whitelist admits \p t (no whitelist = all pass).
bool SampleAdmits(const SupportContext& context, int32_t t) {
  return context.txn_sample == nullptr ||
         std::binary_search(context.txn_sample->begin(),
                            context.txn_sample->end(), t);
}

int64_t TransactionSupport(const OccurrenceList& embeddings,
                           const SupportContext& context) {
  if (context.txn_map != nullptr) {
    // Per-vertex payloads: an embedding covers t iff every image vertex
    // carries t — the intersection of the images' sorted id lists.
    std::unordered_set<int32_t> covered;
    std::vector<int32_t> common;
    std::vector<int32_t> next;
    for (OccurrenceList::Row e : embeddings) {
      if (e.empty()) continue;
      std::span<const int32_t> first = context.txn_map->TxnsOf(e[0]);
      common.assign(first.begin(), first.end());
      for (size_t i = 1; i < e.size() && !common.empty(); ++i) {
        std::span<const int32_t> other = context.txn_map->TxnsOf(e[i]);
        next.clear();
        std::set_intersection(common.begin(), common.end(), other.begin(),
                              other.end(), std::back_inserter(next));
        common.swap(next);
      }
      for (int32_t t : common) {
        if (SampleAdmits(context, t)) covered.insert(t);
      }
    }
    return static_cast<int64_t>(covered.size());
  }
  if (context.txn_of_vertex == nullptr) return 0;
  std::unordered_set<int32_t> txns;
  for (OccurrenceList::Row e : embeddings) {
    if (e.empty()) continue;
    const int32_t t = (*context.txn_of_vertex)[e[0]];
    if (SampleAdmits(context, t)) txns.insert(t);
  }
  return static_cast<int64_t>(txns.size());
}

/// Kept rows by image fingerprint: an open-addressing table of
/// (fingerprint, kept row) slots, one per thread and stamped per use, so it
/// is reused without clearing. A row whose fingerprint is taken is compared
/// by sorted image against the kept rows with that fingerprint only (one row
/// unless fingerprints collide). The table doubles when half full.
class ImageTable {
 public:
  /// Empties the table, sized for \p rows rows.
  void Clear(size_t rows) {
    size_t capacity = 16;
    while (capacity < 2 * rows) capacity <<= 1;
    if (slots_.size() < capacity) slots_.resize(capacity);
    mask_ = capacity - 1;
    count_ = 0;
    NextEpoch();
  }

  /// Records \p row as kept row \p kept and returns true, unless a kept row
  /// has its image: then returns false. \p kept_row(k) returns kept row k.
  template <typename KeptRow>
  bool Insert(std::span<const VertexId> row, size_t kept,
              const KeptRow& kept_row) {
    if (2 * (count_ + 1) > mask_ + 1) Grow();
    const uint64_t fingerprint = ImageFingerprint(row);
    size_t slot = Home(fingerprint);
    bool sorted = false;
    for (; slots_[slot].epoch == epoch_; slot = (slot + 1) & mask_) {
      if (slots_[slot].fingerprint != fingerprint) continue;
      if (!sorted) {
        image_.assign(row.begin(), row.end());
        std::sort(image_.begin(), image_.end());
        sorted = true;
      }
      const std::span<const VertexId> other = kept_row(slots_[slot].kept);
      kept_image_.assign(other.begin(), other.end());
      std::sort(kept_image_.begin(), kept_image_.end());
      if (kept_image_ == image_) return false;
    }
    slots_[slot] = Slot{fingerprint, kept, epoch_};
    ++count_;
    return true;
  }

 private:
  struct Slot {
    uint64_t fingerprint = 0;
    size_t kept = 0;
    uint32_t epoch = 0;
  };

  size_t Home(uint64_t fingerprint) const {
    return static_cast<size_t>(fingerprint ^ (fingerprint >> 32)) & mask_;
  }

  void NextEpoch() {
    if (++epoch_ == 0) {  // wrapped: old stamps could read as current
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
  }

  void Grow() {
    live_.clear();
    for (size_t s = 0; s <= mask_; ++s) {
      if (slots_[s].epoch == epoch_) live_.push_back(slots_[s]);
    }
    const size_t capacity = 2 * (mask_ + 1);
    if (slots_.size() < capacity) slots_.resize(capacity);
    mask_ = capacity - 1;
    NextEpoch();
    for (Slot s : live_) {
      size_t slot = Home(s.fingerprint);
      while (slots_[slot].epoch == epoch_) slot = (slot + 1) & mask_;
      s.epoch = epoch_;
      slots_[slot] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t count_ = 0;
  uint32_t epoch_ = 0;
  std::vector<Slot> live_;
  std::vector<VertexId> image_;
  std::vector<VertexId> kept_image_;
};

/// The thread's table for whole-list dedup, and the one a live
/// OccurrenceFolder holds.
ImageTable& ThreadDedupTable() {
  thread_local ImageTable table;
  return table;
}
ImageTable& ThreadFoldTable() {
  thread_local ImageTable table;
  return table;
}

/// Keeps the first row per image, in order, indexing the kept rows in
/// \p table.
void DedupRows(OccurrenceList* rows, ImageTable& table) {
  table.Clear(rows->size());
  auto kept_row = [rows](size_t k) -> std::span<const VertexId> {
    return (*rows)[k];
  };
  size_t kept = 0;
  for (size_t i = 0; i < rows->size(); ++i) {
    if (!table.Insert((*rows)[i], kept, kept_row)) continue;
    if (kept != i) rows->CopyRow(i, kept);
    ++kept;
  }
  rows->Truncate(kept);
}

}  // namespace

int64_t ComputeSupport(SupportMeasureKind kind, const Pattern& pattern,
                       const OccurrenceList& embeddings,
                       const SupportContext& context) {
  switch (kind) {
    case SupportMeasureKind::kEmbeddingCount:
      return static_cast<int64_t>(embeddings.size());
    case SupportMeasureKind::kMinImage:
      return MinImageSupport(pattern, embeddings);
    case SupportMeasureKind::kGreedyMisVertex:
      return GreedyMisVertexSupport(embeddings);
    case SupportMeasureKind::kGreedyMisEdge:
      // A pattern with no edges has no edge conflicts; fall back to the
      // vertex measure so single-vertex patterns keep sensible support.
      if (pattern.NumEdges() == 0) return GreedyMisVertexSupport(embeddings);
      return GreedyMisEdgeSupport(pattern, embeddings);
    case SupportMeasureKind::kTransaction:
      return TransactionSupport(embeddings, context);
    case SupportMeasureKind::kHomomorphism:
      // Minimum-image count over whatever list the caller passes: the
      // homomorphism support on a complete homomorphic E[P], and the
      // anti-monotone growth-time bound on an injective occurrence list.
      return MinImageSupport(pattern, embeddings);
  }
  return 0;
}

void DedupEmbeddingsByImage(OccurrenceList* embeddings) {
  DedupRows(embeddings, ThreadDedupTable());
}

OccurrenceFolder::OccurrenceFolder(OccurrenceList* list) : list_(list) {
  DedupRows(list, ThreadFoldTable());
}

int64_t OccurrenceFolder::Fold(const OccurrenceList& rows,
                               std::span<const VertexId> iso,
                               int64_t max_rows) {
  ImageTable& table = ThreadFoldTable();
  auto kept_row = [this](size_t k) { return (*list_)[k]; };
  const auto start = static_cast<int64_t>(list_->size());
  int64_t offered = 0;
  for (OccurrenceList::Row e : rows) {
    if (start + offered >= max_rows) break;
    ++offered;
    const std::span<VertexId> row = list_->AppendRow();
    for (size_t u = 0; u < iso.size(); ++u) row[u] = e[iso[u]];
    if (!table.Insert(row, list_->size() - 1, kept_row)) {
      list_->Truncate(list_->size() - 1);
    }
  }
  return offered;
}

}  // namespace spidermine
