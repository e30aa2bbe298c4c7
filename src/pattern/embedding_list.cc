#include "pattern/embedding_list.h"

#include <algorithm>
#include <map>

namespace spidermine {

namespace {

/// Arrangement recursion within one (key, count) group: fills positions
/// left to right, each position trying every unused availability index in
/// ascending order, then descends into the next group. Pools of different
/// groups are disjoint (a neighbor has exactly one key), so cross-group
/// injectivity is automatic.
bool ArrangeGroup(const std::vector<std::pair<SpiderLeafKey, int32_t>>& groups,
                  const std::vector<std::vector<VertexId>>& avail,
                  std::vector<VertexId>* chosen, size_t group_idx, int32_t pos,
                  std::vector<char>* used,
                  const std::function<bool(const std::vector<VertexId>&)>& emit) {
  if (pos == groups[group_idx].second) {
    return EnumerateLeafArrangements(groups, avail, chosen, group_idx + 1,
                                     emit);
  }
  const std::vector<VertexId>& pool = avail[group_idx];
  for (size_t i = 0; i < pool.size(); ++i) {
    if ((*used)[i]) continue;
    (*used)[i] = 1;
    chosen->push_back(pool[i]);
    bool keep_going =
        ArrangeGroup(groups, avail, chosen, group_idx, pos + 1, used, emit);
    chosen->pop_back();
    (*used)[i] = 0;
    if (!keep_going) return false;
  }
  return true;
}

/// Availability lists per leaf-key group among the neighbors of \p center,
/// excluding \p forbidden_image (sorted; may be empty).
std::vector<std::vector<VertexId>> AvailabilityLists(
    const LabeledGraph& graph, VertexId center,
    const std::vector<std::pair<SpiderLeafKey, int32_t>>& groups,
    const std::vector<VertexId>& forbidden_image) {
  std::vector<std::vector<VertexId>> avail(groups.size());
  for (VertexId x : graph.Neighbors(center)) {
    if (std::binary_search(forbidden_image.begin(), forbidden_image.end(),
                           x)) {
      continue;
    }
    const SpiderLeafKey key{graph.EdgeLabel(center, x), graph.Label(x)};
    for (size_t g = 0; g < groups.size(); ++g) {
      if (key == groups[g].first) avail[g].push_back(x);
    }
  }
  return avail;
}

}  // namespace

EmbeddingListRef SaturatedEmbeddingList() {
  static const EmbeddingListRef kSaturated = [] {
    auto list = std::make_shared<EmbeddingList>();
    list->saturated = true;
    return list;
  }();
  return kSaturated;
}

std::vector<std::pair<SpiderLeafKey, int32_t>> GroupLeafKeys(
    std::span<const SpiderLeafKey> keys) {
  std::vector<std::pair<SpiderLeafKey, int32_t>> groups;
  for (const SpiderLeafKey& k : keys) {
    if (!groups.empty() && groups.back().first == k) {
      ++groups.back().second;
    } else {
      groups.emplace_back(k, 1);
    }
  }
  return groups;
}

bool EnumerateLeafCombinations(
    const std::vector<std::pair<SpiderLeafKey, int32_t>>& groups,
    const std::vector<std::vector<VertexId>>& avail,
    std::vector<VertexId>* chosen, size_t group_idx,
    const std::function<bool(const std::vector<VertexId>&)>& emit) {
  if (group_idx == groups.size()) return emit(*chosen);
  const int32_t need = groups[group_idx].second;
  const std::vector<VertexId>& pool = avail[group_idx];
  if (static_cast<int32_t>(pool.size()) < need) return true;  // no choice
  // Iterative combination enumeration over `pool`.
  std::vector<int32_t> idx(static_cast<size_t>(need));
  for (int32_t i = 0; i < need; ++i) idx[i] = i;
  while (true) {
    size_t base = chosen->size();
    for (int32_t i = 0; i < need; ++i) chosen->push_back(pool[idx[i]]);
    bool keep_going =
        EnumerateLeafCombinations(groups, avail, chosen, group_idx + 1, emit);
    chosen->resize(base);
    if (!keep_going) return false;
    // Advance combination.
    int32_t pos = need - 1;
    while (pos >= 0 &&
           idx[pos] == static_cast<int32_t>(pool.size()) - need + pos) {
      --pos;
    }
    if (pos < 0) return true;
    ++idx[pos];
    for (int32_t i = pos + 1; i < need; ++i) idx[i] = idx[i - 1] + 1;
  }
}

bool EnumerateLeafArrangements(
    const std::vector<std::pair<SpiderLeafKey, int32_t>>& groups,
    const std::vector<std::vector<VertexId>>& avail,
    std::vector<VertexId>* chosen, size_t group_idx,
    const std::function<bool(const std::vector<VertexId>&)>& emit) {
  if (group_idx == groups.size()) return emit(*chosen);
  const int32_t need = groups[group_idx].second;
  const std::vector<VertexId>& pool = avail[group_idx];
  if (static_cast<int32_t>(pool.size()) < need) return true;  // no choice
  std::vector<char> used(pool.size(), 0);
  return ArrangeGroup(groups, avail, chosen, group_idx, 0, &used, emit);
}

bool EnumerateLeafAssignments(
    const std::vector<std::pair<SpiderLeafKey, int32_t>>& groups,
    const std::vector<std::vector<VertexId>>& avail,
    std::vector<VertexId>* chosen, size_t group_idx,
    const std::function<bool(const std::vector<VertexId>&)>& emit) {
  if (group_idx == groups.size()) return emit(*chosen);
  const int32_t need = groups[group_idx].second;
  const std::vector<VertexId>& pool = avail[group_idx];
  if (pool.empty()) return true;  // no choice for this group
  // Iterative odometer over `need` positions, each running through the
  // whole pool (tuples with repetition).
  std::vector<int32_t> idx(static_cast<size_t>(need), 0);
  while (true) {
    size_t base = chosen->size();
    for (int32_t i = 0; i < need; ++i) chosen->push_back(pool[idx[i]]);
    bool keep_going =
        EnumerateLeafAssignments(groups, avail, chosen, group_idx + 1, emit);
    chosen->resize(base);
    if (!keep_going) return false;
    // Advance odometer.
    int32_t pos = need - 1;
    while (pos >= 0 && idx[pos] == static_cast<int32_t>(pool.size()) - 1) {
      idx[pos] = 0;
      --pos;
    }
    if (pos < 0) return true;
    ++idx[pos];
  }
}

EmbeddingListRef BuildStarEmbeddingList(const LabeledGraph& graph,
                                        const SpiderStore& store,
                                        int32_t spider_id, int64_t budget,
                                        bool homomorphic) {
  if (budget <= 0) return SaturatedEmbeddingList();
  const auto groups = GroupLeafKeys(store.leaves(spider_id));
  // Homomorphic centers: any head-labeled vertex with >= 1 neighbor per
  // leaf key qualifies (the admission happens naturally when a group's
  // availability list is empty); the store anchor list demands per-key
  // DISTINCT counts and would drop such centers.
  std::span<const VertexId> centers = store.anchors(spider_id);
  if (homomorphic) {
    const LabelId head = store.head_label(spider_id);
    centers = head < graph.NumLabels() ? graph.VerticesWithLabel(head)
                                       : std::span<const VertexId>{};
  }
  auto list = std::make_shared<EmbeddingList>();
  std::vector<Embedding>& out = list->embeddings;
  for (const VertexId anchor : centers) {
    if (groups.empty()) {
      out.push_back({anchor});
      if (static_cast<int64_t>(out.size()) > budget) {
        return SaturatedEmbeddingList();
      }
      continue;
    }
    // Homomorphic leaves may not coincide with the center anyway (no
    // self-loops on simple graphs), so the empty forbidden set is exact.
    const std::vector<std::vector<VertexId>> avail = AvailabilityLists(
        graph, anchor, groups,
        homomorphic ? std::vector<VertexId>{} : std::vector<VertexId>{anchor});
    std::vector<VertexId> chosen;
    auto emit = [&](const std::vector<VertexId>& leafs) {
      Embedding e;
      e.reserve(1 + leafs.size());
      e.push_back(anchor);
      for (VertexId x : leafs) e.push_back(x);
      out.push_back(std::move(e));
      return static_cast<int64_t>(out.size()) <= budget;
    };
    bool completed =
        homomorphic
            ? EnumerateLeafAssignments(groups, avail, &chosen, 0, emit)
            : EnumerateLeafArrangements(groups, avail, &chosen, 0, emit);
    if (!completed) return SaturatedEmbeddingList();
  }
  return list;
}

EmbeddingListRef ExtendEmbeddingListAtVertex(
    const LabeledGraph& graph, const SpiderStore& store, int32_t spider_id,
    const EmbeddingList& base, VertexId v,
    std::span<const SpiderLeafKey> new_leaves, int64_t budget,
    bool homomorphic) {
  if (budget <= 0 || base.saturated) return SaturatedEmbeddingList();
  const auto groups = GroupLeafKeys(new_leaves);
  auto list = std::make_shared<EmbeddingList>();
  const int64_t cap = budget + 1;
  for (const Embedding& e : base.embeddings) {
    const VertexId gv = e[v];
    // Non-lossy prune: an arrangement of the spider's fresh leaves plus the
    // already-embedded N_P(v) images demands per-key neighbor counts at or
    // above the spider's full leaf multiset, which is the store's anchor
    // condition — so non-anchors contribute nothing. Unsound under
    // homomorphism (equal-key leaves may share one neighbor), so skipped.
    if (!homomorphic && !store.IsAnchoredAt(spider_id, gv)) continue;
    // Homomorphic leaves may also land on already-embedded vertices: the
    // only NEW pattern edges run leaf->v, and Neighbors(gv) guarantees
    // those map to graph edges regardless of coincidences elsewhere.
    const std::vector<VertexId> image =
        homomorphic ? std::vector<VertexId>{} : SortedImage(e);
    const std::vector<std::vector<VertexId>> avail =
        AvailabilityLists(graph, gv, groups, image);
    std::vector<VertexId> chosen;
    auto emit = [&](const std::vector<VertexId>& leafs) {
      Embedding extended = e;
      for (VertexId x : leafs) extended.push_back(x);
      list->embeddings.push_back(std::move(extended));
      return static_cast<int64_t>(list->embeddings.size()) < cap;
    };
    bool completed =
        homomorphic ? EnumerateLeafAssignments(groups, avail, &chosen, 0, emit)
                    : EnumerateLeafArrangements(groups, avail, &chosen, 0, emit);
    if (!completed) return SaturatedEmbeddingList();
  }
  if (static_cast<int64_t>(list->embeddings.size()) > budget) {
    return SaturatedEmbeddingList();
  }
  return list;
}

EmbeddingListRef JoinEmbeddingLists(const EmbeddingList& a,
                                    const EmbeddingList& b,
                                    const std::vector<VertexId>& map_a,
                                    const std::vector<VertexId>& map_b,
                                    int32_t num_union_vertices, int64_t budget,
                                    bool homomorphic) {
  if (budget <= 0 || a.saturated || b.saturated) {
    return SaturatedEmbeddingList();
  }
  // Column analysis: which parent vertex (if any) covers each union column.
  std::vector<int32_t> in_a(static_cast<size_t>(num_union_vertices), -1);
  std::vector<int32_t> in_b(static_cast<size_t>(num_union_vertices), -1);
  for (size_t pu = 0; pu < map_a.size(); ++pu) {
    in_a[static_cast<size_t>(map_a[pu])] = static_cast<int32_t>(pu);
  }
  for (size_t pv = 0; pv < map_b.size(); ++pv) {
    in_b[static_cast<size_t>(map_b[pv])] = static_cast<int32_t>(pv);
  }
  std::vector<std::pair<int32_t, int32_t>> shared;  // (a vertex, b vertex)
  std::vector<int32_t> b_exclusive;                 // b vertices not shared
  for (int32_t t = 0; t < num_union_vertices; ++t) {
    if (in_a[static_cast<size_t>(t)] >= 0 && in_b[static_cast<size_t>(t)] >= 0) {
      shared.emplace_back(in_a[static_cast<size_t>(t)],
                          in_b[static_cast<size_t>(t)]);
    }
  }
  for (size_t pv = 0; pv < map_b.size(); ++pv) {
    if (in_a[static_cast<size_t>(map_b[pv])] < 0) {
      b_exclusive.push_back(static_cast<int32_t>(pv));
    }
  }

  // Hash b's list by its overlap-column images. std::map keeps the probe
  // deterministic and is cheap at list sizes bounded by the budget.
  std::map<std::vector<VertexId>, std::vector<int64_t>> by_overlap;
  for (size_t ej = 0; ej < b.embeddings.size(); ++ej) {
    std::vector<VertexId> key;
    key.reserve(shared.size());
    for (const auto& [pu, pv] : shared) {
      key.push_back(b.embeddings[ej][static_cast<size_t>(pv)]);
    }
    by_overlap[std::move(key)].push_back(static_cast<int64_t>(ej));
  }

  auto list = std::make_shared<EmbeddingList>();
  std::vector<Embedding>& out = list->embeddings;
  std::vector<VertexId> key(shared.size());
  for (const Embedding& ea : a.embeddings) {
    for (size_t s = 0; s < shared.size(); ++s) {
      key[s] = ea[static_cast<size_t>(shared[s].first)];
    }
    const auto it = by_overlap.find(key);
    if (it == by_overlap.end()) continue;
    const std::vector<VertexId> a_image =
        homomorphic ? std::vector<VertexId>{} : SortedImage(ea);
    for (int64_t ej : it->second) {
      const Embedding& eb = b.embeddings[static_cast<size_t>(ej)];
      // Cross-injectivity: b-exclusive images must avoid a's image entirely
      // (shared columns agree by key; intra-parent injectivity is given). A
      // homomorphic union embedding is any key-agreeing pair, so the check
      // is skipped there.
      bool ok = true;
      if (!homomorphic) {
        for (int32_t pv : b_exclusive) {
          if (std::binary_search(a_image.begin(), a_image.end(),
                                 eb[static_cast<size_t>(pv)])) {
            ok = false;
            break;
          }
        }
      }
      if (!ok) continue;
      Embedding f(static_cast<size_t>(num_union_vertices));
      for (size_t pu = 0; pu < map_a.size(); ++pu) {
        f[static_cast<size_t>(map_a[pu])] = ea[pu];
      }
      for (size_t pv = 0; pv < map_b.size(); ++pv) {
        f[static_cast<size_t>(map_b[pv])] = eb[pv];
      }
      out.push_back(std::move(f));
      if (static_cast<int64_t>(out.size()) > budget) {
        return SaturatedEmbeddingList();
      }
    }
  }
  return list;
}

bool ExtendEmbeddingsNewVertex(const LabeledGraph& graph,
                               const std::vector<Embedding>& base,
                               VertexId src, EdgeLabelId edge_label,
                               LabelId vertex_label, int64_t max_embeddings,
                               std::vector<Embedding>* out) {
  for (const Embedding& e : base) {
    const std::vector<VertexId> image = SortedImage(e);
    for (VertexId x : graph.Neighbors(e[static_cast<size_t>(src)])) {
      if (graph.Label(x) != vertex_label ||
          std::binary_search(image.begin(), image.end(), x)) {
        continue;
      }
      if (graph.EdgeLabel(e[static_cast<size_t>(src)], x) != edge_label) {
        continue;
      }
      Embedding extended = e;
      extended.push_back(x);
      out->push_back(std::move(extended));
      if (static_cast<int64_t>(out->size()) >= max_embeddings) return false;
    }
  }
  return true;
}

std::vector<Embedding> FilterEmbeddingsInternalEdge(
    const LabeledGraph& graph, const std::vector<Embedding>& embeddings,
    VertexId u, VertexId v, EdgeLabelId edge_label) {
  std::vector<Embedding> kept;
  for (const Embedding& e : embeddings) {
    const VertexId gu = e[static_cast<size_t>(u)];
    const VertexId gv = e[static_cast<size_t>(v)];
    if (graph.HasEdge(gu, gv) && graph.EdgeLabel(gu, gv) == edge_label) {
      kept.push_back(e);
    }
  }
  return kept;
}

}  // namespace spidermine
