#include "support/exact_mis.h"

#include <algorithm>
#include <unordered_set>

namespace spidermine {

namespace {

/// Builds the conflict adjacency as bitsets over embeddings.
std::vector<std::vector<bool>> BuildConflicts(
    const Pattern& pattern, const OccurrenceList& embeddings,
    MisConflict conflict) {
  const size_t n = embeddings.size();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  if (conflict == MisConflict::kSharedVertex) {
    std::vector<std::vector<VertexId>> images;
    images.reserve(n);
    for (OccurrenceList::Row e : embeddings) images.push_back(SortedImage(e));
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        if (ImagesIntersect(images[i], images[j])) {
          adj[i][j] = adj[j][i] = true;
        }
      }
    }
  } else {
    auto edge_key = [](VertexId a, VertexId b) {
      if (a > b) std::swap(a, b);
      return (static_cast<uint64_t>(a) << 32) | static_cast<uint32_t>(b);
    };
    const auto pattern_edges = pattern.Edges();
    std::vector<std::vector<uint64_t>> edge_sets(n);
    for (size_t i = 0; i < n; ++i) {
      for (const auto& [pu, pv] : pattern_edges) {
        edge_sets[i].push_back(edge_key(embeddings[i][pu], embeddings[i][pv]));
      }
      std::sort(edge_sets[i].begin(), edge_sets[i].end());
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        // Sorted-merge intersection test.
        size_t a = 0;
        size_t b = 0;
        bool hit = false;
        while (a < edge_sets[i].size() && b < edge_sets[j].size()) {
          if (edge_sets[i][a] == edge_sets[j][b]) {
            hit = true;
            break;
          }
          if (edge_sets[i][a] < edge_sets[j][b]) {
            ++a;
          } else {
            ++b;
          }
        }
        if (hit) adj[i][j] = adj[j][i] = true;
      }
    }
  }
  return adj;
}

struct MisSearch {
  const std::vector<std::vector<bool>>* adj;
  int64_t max_nodes;
  int64_t nodes = 0;
  bool truncated = false;
  int64_t best = 0;

  /// Branch and bound over candidate order: candidates[pos..] are still
  /// selectable; `chosen` counts the current independent set.
  void Recurse(std::vector<int32_t> candidates, int64_t chosen) {
    if (++nodes > max_nodes) {
      truncated = true;
      return;
    }
    best = std::max(best, chosen);
    // Bound: even taking all remaining candidates cannot beat best.
    if (chosen + static_cast<int64_t>(candidates.size()) <= best) return;
    while (!candidates.empty()) {
      if (truncated) return;
      // Take the first candidate; filter the rest; recurse; then also
      // explore skipping it.
      int32_t v = candidates.front();
      candidates.erase(candidates.begin());
      std::vector<int32_t> filtered;
      filtered.reserve(candidates.size());
      for (int32_t u : candidates) {
        if (!(*adj)[v][u]) filtered.push_back(u);
      }
      Recurse(std::move(filtered), chosen + 1);
      // The loop continues == the "skip v" branch, with the same bound.
      if (chosen + static_cast<int64_t>(candidates.size()) <= best) return;
    }
  }
};

}  // namespace

Result<ExactMisResult> ComputeExactMisSupport(
    const Pattern& pattern, const OccurrenceList& embeddings,
    MisConflict conflict, int64_t max_nodes) {
  if (conflict == MisConflict::kSharedEdge && pattern.NumEdges() == 0) {
    return Status::InvalidArgument(
        "edge-conflict MIS needs a pattern with edges");
  }
  ExactMisResult result;
  if (embeddings.empty()) return result;

  std::vector<std::vector<bool>> adj =
      BuildConflicts(pattern, embeddings, conflict);

  // Order candidates by conflict degree ascending: low-conflict embeddings
  // first tightens the bound quickly.
  std::vector<int32_t> order(embeddings.size());
  for (size_t i = 0; i < embeddings.size(); ++i) {
    order[i] = static_cast<int32_t>(i);
  }
  std::vector<int32_t> degree(embeddings.size(), 0);
  for (size_t i = 0; i < embeddings.size(); ++i) {
    for (size_t j = 0; j < embeddings.size(); ++j) {
      if (adj[i][j]) ++degree[i];
    }
  }
  std::sort(order.begin(), order.end(),
            [&](int32_t a, int32_t b) { return degree[a] < degree[b]; });

  MisSearch search;
  search.adj = &adj;
  search.max_nodes = max_nodes > 0 ? max_nodes : 1000000;
  search.Recurse(order, 0);

  result.support = search.best;
  result.truncated = search.truncated;
  result.nodes_explored = search.nodes;
  return result;
}

}  // namespace spidermine
