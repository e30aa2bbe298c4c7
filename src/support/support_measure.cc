#include "support/support_measure.h"

#include <algorithm>
#include <iterator>
#include <unordered_set>

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

/// A set of graph vertices as per-vertex stamps: a vertex is in the set iff
/// its stamp equals the current epoch, so Clear() is O(1). One per thread,
/// reused by every support fold on it.
class VertexMarks {
 public:
  /// Empties the set.
  void Clear() {
    if (++epoch_ == 0) {  // wrapped: old stamps could read as current
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  bool Contains(VertexId v) const {
    const auto i = static_cast<size_t>(v);
    return i < stamp_.size() && stamp_[i] == epoch_;
  }

  /// Adds \p v; returns true iff it was not in the set.
  bool Insert(VertexId v) {
    const auto i = static_cast<size_t>(v);
    if (i >= stamp_.size()) stamp_.resize(i + 1, 0);
    if (stamp_[i] == epoch_) return false;
    stamp_[i] = epoch_;
    return true;
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

VertexMarks& ThreadVertexMarks() {
  thread_local VertexMarks marks;
  return marks;
}

int64_t MinImageSupport(const Pattern& pattern,
                        const std::vector<Embedding>& embeddings) {
  if (embeddings.empty()) return 0;
  VertexMarks& images = ThreadVertexMarks();
  int64_t min_images = INT64_MAX;
  for (VertexId pv = 0; pv < pattern.NumVertices(); ++pv) {
    images.Clear();
    int64_t count = 0;
    for (const Embedding& e : embeddings) count += images.Insert(e[pv]);
    min_images = std::min(min_images, count);
  }
  return min_images;
}

int64_t GreedyMisVertexSupport(const std::vector<Embedding>& embeddings) {
  VertexMarks& used = ThreadVertexMarks();
  used.Clear();
  int64_t count = 0;
  for (const Embedding& e : embeddings) {
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
                             const std::vector<Embedding>& embeddings) {
  auto pattern_edges = pattern.Edges();
  auto edge_key = [](VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
  };
  std::unordered_set<uint64_t> used;
  int64_t count = 0;
  for (const Embedding& e : embeddings) {
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

int64_t TransactionSupport(const std::vector<Embedding>& embeddings,
                           const SupportContext& context) {
  if (context.txn_map != nullptr) {
    // Per-vertex payloads: an embedding covers t iff every image vertex
    // carries t — the intersection of the images' sorted id lists.
    std::unordered_set<int32_t> covered;
    std::vector<int32_t> common;
    std::vector<int32_t> next;
    for (const Embedding& e : embeddings) {
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
  for (const Embedding& e : embeddings) {
    if (e.empty()) continue;
    const int32_t t = (*context.txn_of_vertex)[e[0]];
    if (SampleAdmits(context, t)) txns.insert(t);
  }
  return static_cast<int64_t>(txns.size());
}

}  // namespace

int64_t ComputeSupport(SupportMeasureKind kind, const Pattern& pattern,
                       const std::vector<Embedding>& embeddings,
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

void DedupEmbeddingsByImage(std::vector<Embedding>* embeddings) {
  // The kept rows by image fingerprint: an open-addressing table of
  // (fingerprint, kept row) slots, one per thread and stamped per call, so
  // it is reused without clearing. A row whose fingerprint is taken is
  // compared by sorted image against the kept rows with that fingerprint
  // only (one row unless fingerprints collide).
  struct Slot {
    uint64_t fingerprint = 0;
    size_t kept = 0;
    uint32_t epoch = 0;
  };
  thread_local std::vector<Slot> table;
  thread_local uint32_t epoch = 0;
  thread_local std::vector<VertexId> image;
  thread_local std::vector<VertexId> kept_image;
  std::vector<Embedding>& rows = *embeddings;
  size_t capacity = 16;
  while (capacity < 2 * rows.size()) capacity <<= 1;
  if (table.size() < capacity) table.resize(capacity);
  if (++epoch == 0) {  // wrapped: old stamps could read as current
    std::fill(table.begin(), table.end(), Slot{});
    epoch = 1;
  }
  const size_t mask = capacity - 1;
  size_t kept = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint64_t fingerprint = ImageFingerprint(rows[i]);
    size_t slot =
        static_cast<size_t>(fingerprint ^ (fingerprint >> 32)) & mask;
    bool duplicate = false;
    bool sorted = false;
    for (; table[slot].epoch == epoch; slot = (slot + 1) & mask) {
      if (table[slot].fingerprint != fingerprint) continue;
      if (!sorted) {
        image.assign(rows[i].begin(), rows[i].end());
        std::sort(image.begin(), image.end());
        sorted = true;
      }
      const Embedding& other = rows[table[slot].kept];
      kept_image.assign(other.begin(), other.end());
      std::sort(kept_image.begin(), kept_image.end());
      if (kept_image == image) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    table[slot] = Slot{fingerprint, kept, epoch};
    if (kept != i) rows[kept] = std::move(rows[i]);
    ++kept;
  }
  rows.resize(kept);
}

}  // namespace spidermine
