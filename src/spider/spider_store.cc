#include "spider/spider_store.h"

#include <algorithm>
#include <cassert>
#include <compare>

namespace spidermine {

SpiderStore SpiderStore::Borrowed(std::span<const LabelId> head_labels,
                                  std::span<const uint8_t> closed,
                                  std::span<const int64_t> leaf_offsets,
                                  std::span<const SpiderLeafKey> leaf_pool,
                                  std::span<const int64_t> anchor_offsets,
                                  std::span<const VertexId> anchor_pool) {
  assert(closed.empty() || closed.size() == head_labels.size());
  assert(leaf_offsets.size() == head_labels.size() + 1);
  assert(anchor_offsets.size() == head_labels.size() + 1);
  SpiderStore store;
  store.borrowed_ = true;
  store.b_head_labels_ = head_labels;
  store.b_closed_ = closed;
  store.b_leaf_offsets_ = leaf_offsets;
  store.b_leaf_pool_ = leaf_pool;
  store.b_anchor_offsets_ = anchor_offsets;
  store.b_anchor_pool_ = anchor_pool;
  return store;
}

bool SpiderStore::IsAnchoredAt(int32_t id, VertexId vertex) const {
  std::span<const VertexId> a = anchors(id);
  return std::binary_search(a.begin(), a.end(), vertex);
}

int32_t SpiderStore::Find(LabelId head,
                          std::span<const SpiderLeafKey> leaves) const {
  int32_t lo = 0;
  int32_t hi = static_cast<int32_t>(size());
  while (lo < hi) {
    const int32_t mid = lo + (hi - lo) / 2;
    const std::span<const SpiderLeafKey> x = this->leaves(mid);
    std::strong_ordering order = head_label(mid) <=> head;
    if (order == 0) {
      order = std::lexicographical_compare_three_way(
          x.begin(), x.end(), leaves.begin(), leaves.end());
    }
    if (order == 0) return mid;
    if (order < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return -1;
}

int64_t SpiderStore::HeapBytes() const {
  if (borrowed_) {
    // Mapped extent: bytes referenced through the borrowed spans. Not heap
    // — page cache backs them, shared across every replica of the file.
    return static_cast<int64_t>(
        b_head_labels_.size_bytes() + b_closed_.size_bytes() +
        b_leaf_offsets_.size_bytes() + b_leaf_pool_.size_bytes() +
        b_anchor_offsets_.size_bytes() + b_anchor_pool_.size_bytes());
  }
  return static_cast<int64_t>(
      head_labels_.capacity() * sizeof(LabelId) +
      closed_.capacity() * sizeof(uint8_t) +
      leaf_offsets_.capacity() * sizeof(int64_t) +
      leaf_pool_.capacity() * sizeof(SpiderLeafKey) +
      anchor_offsets_.capacity() * sizeof(int64_t) +
      anchor_pool_.capacity() * sizeof(VertexId));
}

int32_t SpiderStore::Append(LabelId head_label,
                            std::span<const SpiderLeafKey> leaves,
                            std::span<const VertexId> anchors, bool closed) {
  assert(!borrowed_ && "cannot mutate a borrowed (mmap'd) SpiderStore");
  assert(std::is_sorted(leaves.begin(), leaves.end()));
  assert(std::is_sorted(anchors.begin(), anchors.end()));
  const int32_t id = static_cast<int32_t>(head_labels_.size());
  head_labels_.push_back(head_label);
  closed_.push_back(closed ? 1 : 0);
  leaf_pool_.insert(leaf_pool_.end(), leaves.begin(), leaves.end());
  leaf_offsets_.push_back(static_cast<int64_t>(leaf_pool_.size()));
  anchor_pool_.insert(anchor_pool_.end(), anchors.begin(), anchors.end());
  anchor_offsets_.push_back(static_cast<int64_t>(anchor_pool_.size()));
  return id;
}

void SpiderStore::AppendPrefix(const SpiderStore& other, int64_t count) {
  assert(!borrowed_ && "cannot mutate a borrowed (mmap'd) SpiderStore");
  count = std::min(count, other.size());
  if (count <= 0) return;
  std::span<const int64_t> other_leaf_offsets = other.leaf_offsets_col();
  std::span<const int64_t> other_anchor_offsets = other.anchor_offsets_col();
  const int64_t leaf_end = other_leaf_offsets[count];
  const int64_t anchor_end = other_anchor_offsets[count];
  std::span<const LabelId> other_heads = other.head_labels_col();
  std::span<const uint8_t> other_closed = other.closed_col();
  head_labels_.insert(head_labels_.end(), other_heads.begin(),
                      other_heads.begin() + count);
  closed_.insert(closed_.end(), other_closed.begin(),
                 other_closed.begin() + count);
  const int64_t leaf_base = static_cast<int64_t>(leaf_pool_.size());
  std::span<const SpiderLeafKey> other_leaves = other.leaf_pool_col();
  leaf_pool_.insert(leaf_pool_.end(), other_leaves.begin(),
                    other_leaves.begin() + leaf_end);
  for (int64_t i = 1; i <= count; ++i) {
    leaf_offsets_.push_back(leaf_base + other_leaf_offsets[i]);
  }
  const int64_t anchor_base = static_cast<int64_t>(anchor_pool_.size());
  std::span<const VertexId> other_anchors = other.anchor_pool_col();
  anchor_pool_.insert(anchor_pool_.end(), other_anchors.begin(),
                      other_anchors.begin() + anchor_end);
  for (int64_t i = 1; i <= count; ++i) {
    anchor_offsets_.push_back(anchor_base + other_anchor_offsets[i]);
  }
}

void SpiderStore::Reserve(int64_t num_spiders, int64_t total_leaves,
                          int64_t total_anchors) {
  assert(!borrowed_ && "cannot mutate a borrowed (mmap'd) SpiderStore");
  head_labels_.reserve(static_cast<size_t>(num_spiders));
  closed_.reserve(static_cast<size_t>(num_spiders));
  leaf_offsets_.reserve(static_cast<size_t>(num_spiders) + 1);
  leaf_pool_.reserve(static_cast<size_t>(total_leaves));
  anchor_offsets_.reserve(static_cast<size_t>(num_spiders) + 1);
  anchor_pool_.reserve(static_cast<size_t>(total_anchors));
}

Pattern SpiderStore::PatternOf(int32_t id) const {
  Pattern p;
  p.AddVertex(head_label(id));
  for (const SpiderLeafKey& leaf : leaves(id)) {
    VertexId leaf_vertex = p.AddVertex(leaf.second);
    p.AddEdge(0, leaf_vertex, leaf.first);
  }
  return p;
}

Spider SpiderStore::Materialize(int32_t id) const {
  Spider s;
  s.radius = 1;
  s.pattern = PatternOf(id);
  std::span<const VertexId> a = anchors(id);
  s.anchors.assign(a.begin(), a.end());
  s.support = static_cast<int64_t>(s.anchors.size());
  s.closed = closed(id);
  return s;
}

std::vector<Spider> SpiderStore::MaterializeAll() const {
  std::vector<Spider> out;
  out.reserve(static_cast<size_t>(size()));
  for (int32_t id = 0; id < static_cast<int32_t>(size()); ++id) {
    out.push_back(Materialize(id));
  }
  return out;
}

SpiderStore SpiderStore::FromSpiders(const std::vector<Spider>& spiders) {
  SpiderStore store;
  int64_t total_leaves = 0;
  int64_t total_anchors = 0;
  for (const Spider& s : spiders) {
    total_leaves += s.pattern.NumVertices() - 1;
    total_anchors += static_cast<int64_t>(s.anchors.size());
  }
  store.Reserve(static_cast<int64_t>(spiders.size()), total_leaves,
                total_anchors);
  for (const Spider& s : spiders) {
    assert(s.pattern.NumEdges() == s.pattern.NumVertices() - 1 &&
           "SpiderStore holds star-shaped spiders only");
    std::vector<SpiderLeafKey> leaves = s.LeafKeys();
    store.Append(s.pattern.Label(0), leaves, s.anchors, s.closed);
  }
  return store;
}

std::optional<std::span<const VertexId>> StarRoots(const SpiderStore& store,
                                                   const Pattern& pattern,
                                                   VertexId v,
                                                   bool homomorphic) {
  std::vector<SpiderLeafKey> keys;
  for (VertexId u : pattern.Neighbors(v)) {
    keys.emplace_back(pattern.EdgeLabel(v, u), pattern.Label(u));
  }
  std::sort(keys.begin(), keys.end());
  if (homomorphic) {
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  const int32_t id = store.Find(pattern.Label(v), keys);
  if (id < 0) return std::nullopt;
  return store.anchors(id);
}

}  // namespace spidermine
