#include "pattern/dfs_code.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <sstream>
#include <tuple>

#include "common/fnv1a.h"

namespace spidermine {

int CompareDfsEdges(const DfsEdge& a, const DfsEdge& b) {
  const bool fa = a.IsForward();
  const bool fb = b.IsForward();
  if (!fa && fb) {
    // backward (i1,j1) precedes forward (i2,j2) iff i1 < j2.
    return a.from < b.to ? -1 : 1;
  }
  if (fa && !fb) {
    // forward (i1,j1) precedes backward (i2,j2) iff j1 <= i2.
    return a.to <= b.from ? -1 : 1;
  }
  if (!fa) {
    // Both backward: order by (from, to).
    if (a.from != b.from) return a.from < b.from ? -1 : 1;
    if (a.to != b.to) return a.to < b.to ? -1 : 1;
  } else {
    // Both forward: order by (to, from DESC) -- deeper source first.
    if (a.to != b.to) return a.to < b.to ? -1 : 1;
    if (a.from != b.from) return a.from > b.from ? -1 : 1;
  }
  // Structure equal: compare labels in gSpan tuple order
  // (from_label, edge_label, to_label).
  if (a.from_label != b.from_label) return a.from_label < b.from_label ? -1 : 1;
  if (a.edge_label != b.edge_label) return a.edge_label < b.edge_label ? -1 : 1;
  if (a.to_label != b.to_label) return a.to_label < b.to_label ? -1 : 1;
  return 0;
}

int CompareDfsCodes(const DfsCode& a, const DfsCode& b) {
  if (a.root_label != b.root_label) return a.root_label < b.root_label ? -1 : 1;
  size_t common = std::min(a.edges.size(), b.edges.size());
  for (size_t i = 0; i < common; ++i) {
    int c = CompareDfsEdges(a.edges[i], b.edges[i]);
    if (c != 0) return c;
  }
  if (a.edges.size() != b.edges.size()) {
    return a.edges.size() < b.edges.size() ? -1 : 1;
  }
  return 0;
}

namespace {

/// Backtracking search for the minimum DFS code of a fixed pattern.
///
/// Invariant per recursion step: the already-built `current` prefix is a
/// valid DFS-code prefix of the pattern. Candidate next edges follow gSpan's
/// rightmost-path rule: backward edges leave the rightmost vertex toward its
/// smallest-id ancestor first; forward edges leave the deepest possible
/// rightmost-path vertex with the smallest possible target label. Larger
/// candidates are tried only when every smaller candidate dead-ends, and a
/// subtree reporting a completion prunes all larger siblings.
struct MinCodeSearch {
  const Pattern* pattern = nullptr;
  std::vector<int32_t> dfs_of;    // pattern vertex -> DFS id or -1
  std::vector<VertexId> vertex_of;  // DFS id -> pattern vertex
  std::vector<int32_t> rightmost_path;  // DFS ids, root first (increasing)
  std::vector<std::vector<bool>> covered;  // adjacency-shaped edge marks
  DfsCode current;
  DfsCode best;
  bool have_best = false;

  void SetEdgeCovered(VertexId u, VertexId v, bool value) {
    auto set_one = [&](VertexId a, VertexId b) {
      auto nbrs = pattern->Neighbors(a);
      size_t idx = static_cast<size_t>(
          std::lower_bound(nbrs.begin(), nbrs.end(), b) - nbrs.begin());
      covered[a][idx] = value;
    };
    set_one(u, v);
    set_one(v, u);
  }

  bool EdgeCovered(VertexId u, VertexId v) const {
    auto nbrs = pattern->Neighbors(u);
    size_t idx = static_cast<size_t>(
        std::lower_bound(nbrs.begin(), nbrs.end(), v) - nbrs.begin());
    return covered[u][idx];
  }

  /// Classifies the edge just appended at position i.
  /// \param equal_prefix  whether current[0..i) == best[0..i)
  /// \param[out] child_equal_prefix  prefix state for the recursive call
  /// \returns false when this branch is provably >= ... > best and must be cut
  bool AdmitAppended(bool equal_prefix, bool* child_equal_prefix) const {
    if (!have_best || !equal_prefix) {
      *child_equal_prefix = false;
      // Without a best yet the notion degenerates; treat "no best" as
      // equal-prefix so the first completion establishes the baseline.
      if (!have_best) *child_equal_prefix = true;
      return true;
    }
    size_t i = current.edges.size() - 1;
    assert(i < best.edges.size());
    int c = CompareDfsEdges(current.edges[i], best.edges[i]);
    if (c > 0) return false;  // prefix already greater: cut
    *child_equal_prefix = (c == 0);
    return true;
  }

  /// Returns true iff some completion was reached in this subtree.
  bool Recurse(bool equal_prefix);
};

bool MinCodeSearch::Recurse(bool equal_prefix) {
  const Pattern& p = *pattern;
  if (current.edges.size() == static_cast<size_t>(p.NumEdges())) {
    if (!have_best || CompareDfsCodes(current, best) < 0) {
      best = current;
      have_best = true;
    }
    return true;
  }

  // --- Backward candidate: unique minimal next extension when present.
  const int32_t rm_id = rightmost_path.back();
  const VertexId rm_vertex = vertex_of[rm_id];
  for (size_t i = 0; i + 1 < rightmost_path.size(); ++i) {
    int32_t anc_id = rightmost_path[i];
    VertexId anc_vertex = vertex_of[anc_id];
    if (!p.HasEdge(rm_vertex, anc_vertex)) continue;
    if (EdgeCovered(rm_vertex, anc_vertex)) continue;
    current.edges.push_back(DfsEdge{rm_id, anc_id, p.Label(rm_vertex),
                                    p.Label(anc_vertex),
                                    p.EdgeLabel(rm_vertex, anc_vertex)});
    SetEdgeCovered(rm_vertex, anc_vertex, true);
    bool child_equal = false;
    bool completed = false;
    if (AdmitAppended(equal_prefix, &child_equal)) {
      completed = Recurse(child_equal);
    }
    SetEdgeCovered(rm_vertex, anc_vertex, false);
    current.edges.pop_back();
    // A backward extension, when available, is the ONLY valid minimal next
    // edge: forward siblings are strictly larger and other backward targets
    // strictly larger, so do not explore alternatives.
    return completed;
  }

  // --- Forward candidates: deepest source first, then the smallest
  // (edge label, vertex label) pair per gSpan tuple order.
  const int32_t next_id = static_cast<int32_t>(vertex_of.size());
  for (size_t pos = rightmost_path.size(); pos-- > 0;) {
    int32_t src_id = rightmost_path[pos];
    VertexId src_vertex = vertex_of[src_id];
    std::vector<std::pair<EdgeLabelId, LabelId>> labels;
    for (VertexId nbr : p.Neighbors(src_vertex)) {
      if (dfs_of[nbr] < 0) {
        labels.emplace_back(p.EdgeLabel(src_vertex, nbr), p.Label(nbr));
      }
    }
    if (labels.empty()) continue;
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());

    bool completed_any = false;
    for (const auto& [elab, lab] : labels) {
      for (VertexId nbr : p.Neighbors(src_vertex)) {
        if (dfs_of[nbr] >= 0 || p.Label(nbr) != lab ||
            p.EdgeLabel(src_vertex, nbr) != elab) {
          continue;
        }
        std::vector<int32_t> saved_path = rightmost_path;
        rightmost_path.resize(pos + 1);
        rightmost_path.push_back(next_id);
        dfs_of[nbr] = next_id;
        vertex_of.push_back(nbr);
        current.edges.push_back(
            DfsEdge{src_id, next_id, p.Label(src_vertex), lab, elab});
        SetEdgeCovered(src_vertex, nbr, true);
        bool child_equal = false;
        if (AdmitAppended(equal_prefix, &child_equal)) {
          completed_any |= Recurse(child_equal);
        }
        SetEdgeCovered(src_vertex, nbr, false);
        current.edges.pop_back();
        vertex_of.pop_back();
        dfs_of[nbr] = -1;
        rightmost_path = std::move(saved_path);
      }
      if (completed_any) break;  // larger labels cannot improve the code
    }
    if (completed_any) return true;  // shallower sources cannot improve
  }
  return false;  // structural dead end
}

}  // namespace

DfsCode MinimumDfsCode(const Pattern& pattern) {
  DfsCode result;
  if (pattern.NumVertices() == 0) {
    result.root_label = -1;
    return result;
  }
  if (!pattern.IsConnected()) {
    result.root_label = -2;
    return result;
  }
  if (pattern.NumEdges() == 0) {
    result.root_label = pattern.Label(0);
    return result;
  }

  // Minimal first tuple: smallest (from_label, edge_label, to_label) over
  // directed edges.
  LabelId best_from = -1;
  LabelId best_to = -1;
  EdgeLabelId best_edge = -1;
  for (VertexId u = 0; u < pattern.NumVertices(); ++u) {
    for (VertexId v : pattern.Neighbors(u)) {
      LabelId lu = pattern.Label(u);
      LabelId lv = pattern.Label(v);
      EdgeLabelId le = pattern.EdgeLabel(u, v);
      if (best_from < 0 ||
          std::tie(lu, le, lv) < std::tie(best_from, best_edge, best_to)) {
        best_from = lu;
        best_to = lv;
        best_edge = le;
      }
    }
  }

  MinCodeSearch search;
  search.pattern = &pattern;
  search.dfs_of.assign(static_cast<size_t>(pattern.NumVertices()), -1);
  search.covered.resize(static_cast<size_t>(pattern.NumVertices()));
  for (VertexId v = 0; v < pattern.NumVertices(); ++v) {
    search.covered[v].assign(pattern.Neighbors(v).size(), false);
  }
  search.current.root_label = best_from;
  search.best.root_label = best_from;

  for (VertexId u = 0; u < pattern.NumVertices(); ++u) {
    if (pattern.Label(u) != best_from) continue;
    for (VertexId v : pattern.Neighbors(u)) {
      if (pattern.Label(v) != best_to) continue;
      if (pattern.EdgeLabel(u, v) != best_edge) continue;
      search.dfs_of[u] = 0;
      search.dfs_of[v] = 1;
      search.vertex_of = {u, v};
      search.rightmost_path = {0, 1};
      search.current.edges = {DfsEdge{0, 1, best_from, best_to, best_edge}};
      search.SetEdgeCovered(u, v, true);
      search.Recurse(/*equal_prefix=*/true);
      search.SetEdgeCovered(u, v, false);
      search.dfs_of[u] = -1;
      search.dfs_of[v] = -1;
    }
  }
  assert(search.have_best);
  return search.best;
}

namespace {

uint64_t WlMix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// The one WL colour refinement behind WlRefinementString and
/// PatternIsoHash. Hands the fingerprint's bytes to \p sink(data, size) in
/// order: "n<n>m<m>;" in decimal, each sorted vertex colour in hex with a
/// trailing ",", a ";", then each sorted edge colour the same way.
template <typename Sink>
void WlFingerprint(const Pattern& pattern, Sink&& sink) {
  const int32_t n = pattern.NumVertices();
  // Per-thread scratch: the key runs on every pattern a query grows.
  thread_local std::vector<uint64_t> color;
  thread_local std::vector<uint64_t> next;
  thread_local std::vector<uint64_t> nbr;
  thread_local std::vector<uint64_t> edge_colors;
  // The label of v's i-th edge (0 on edge-unlabeled patterns).
  auto label_at = [&pattern](VertexId v, size_t i) {
    return static_cast<uint64_t>(pattern.EdgeLabelAt(v, i));
  };

  color.resize(static_cast<size_t>(n));
  next.resize(static_cast<size_t>(n));
  for (VertexId v = 0; v < n; ++v) {
    color[v] = WlMix(static_cast<uint64_t>(pattern.Label(v)) + 1);
  }
  for (int round = 0; round < 3; ++round) {
    for (VertexId v = 0; v < n; ++v) {
      nbr.clear();
      const std::span<const VertexId> nbrs = pattern.Neighbors(v);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        // Edge labels participate in the refinement so edge-labeled
        // non-isomorphic patterns separate (0 for unlabeled edges).
        nbr.push_back(color[nbrs[i]] ^ WlMix(label_at(v, i) + 17));
      }
      std::sort(nbr.begin(), nbr.end());
      uint64_t acc = color[v];
      for (uint64_t c : nbr) acc = WlMix(acc ^ (c + 0x9e3779b97f4a7c15ULL));
      next[v] = acc;
    }
    color.swap(next);
  }
  edge_colors.clear();
  for (VertexId v = 0; v < n; ++v) {
    const std::span<const VertexId> nbrs = pattern.Neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId u = nbrs[i];
      if (u < v) continue;  // each edge once, from its smaller end
      const uint64_t a = std::min(color[u], color[v]);
      const uint64_t b = std::max(color[u], color[v]);
      edge_colors.push_back(WlMix(a) ^ (WlMix(b) * 3) ^
                            WlMix(label_at(v, i) + 29));
    }
  }
  std::sort(edge_colors.begin(), edge_colors.end());
  std::sort(color.begin(), color.end());  // the vertex colours, in order

  char buf[24];
  auto put = [&](auto value, int base, char terminator) {
    char* end = std::to_chars(buf, buf + sizeof(buf) - 1, value, base).ptr;
    *end++ = terminator;
    sink(buf, static_cast<size_t>(end - buf));
  };
  sink("n", 1);
  put(n, 10, 'm');
  put(pattern.NumEdges(), 10, ';');
  for (uint64_t c : color) put(c, 16, ',');
  sink(";", 1);
  for (uint64_t c : edge_colors) put(c, 16, ',');
}

}  // namespace

std::string WlRefinementString(const Pattern& pattern) {
  std::string out;
  WlFingerprint(pattern, [&out](const char* data, size_t size) {
    out.append(data, size);
  });
  return out;
}

uint64_t PatternIsoHash(const Pattern& pattern) {
  // The basis is the standard one with its last digit dropped. It is
  // kept because every dedup key and pinned value depends on it.
  Fnv1a h(1469598103934665603ULL);
  WlFingerprint(pattern, [&h](const char* data, size_t size) {
    h.MixBytes(data, size);
  });
  return h.hash() == 0 ? 1 : h.hash();  // 0 is the "not computed" sentinel
}

std::string DfsCodeToString(const DfsCode& code) {
  std::ostringstream os;
  os << "r" << code.root_label;
  for (const DfsEdge& e : code.edges) {
    os << ";" << e.from << "," << e.to << "," << e.from_label << ","
       << e.to_label;
    if (e.edge_label != 0) os << "," << e.edge_label;
  }
  return os.str();
}

Pattern PatternFromDfsCode(const DfsCode& code) {
  Pattern p;
  if (code.root_label < 0) return p;
  p.AddVertex(code.root_label);
  for (const DfsEdge& e : code.edges) {
    if (e.IsForward()) {
      VertexId v = p.AddVertex(e.to_label);
      assert(v == e.to);
      (void)v;
    }
    p.AddEdge(e.from, e.to, e.edge_label);
  }
  return p;
}

}  // namespace spidermine
