#include "pattern/iso_index.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/graph_builder.h"
#include "pattern/vf2.h"

/// The isomorphism-class index every dedup site goes through: a key miss
/// settles a lookup, a key hit is confirmed with VF2, the first isomorphic
/// entry in admission order wins, first_idx skips earlier entries, the
/// returned vertex map renumbers embeddings between the two patterns, and
/// the counters follow one rule.

namespace spidermine {
namespace {

/// An index entry: the index reads only the `pattern` member.
struct Entry {
  Pattern pattern;
};

/// Looks \p probe up among \p entries (entry i = position i).
int64_t FindIn(const IsoIndex& index, const std::vector<Entry>& entries,
               const Pattern& probe, int64_t first_idx, IsoChecks* checks,
               std::vector<VertexId>* map = nullptr) {
  return index.Find(IsoIndex::Key(probe), probe, first_idx, entries, map,
                    checks);
}

/// An index over \p entries, added in order.
IsoIndex IndexOf(const std::vector<Entry>& entries) {
  IsoIndex index;
  for (size_t i = 0; i < entries.size(); ++i) {
    index.Add(IsoIndex::Key(entries[i].pattern), static_cast<int64_t>(i));
  }
  return index;
}

/// Dedup as the growth engine does it: the entry an isomorphic pattern
/// already occupies, else a new entry.
int64_t Admit(IsoIndex* index, std::vector<Entry>* entries, const Pattern& p,
              IsoChecks* checks) {
  const int64_t hit = FindIn(*index, *entries, p, 0, checks);
  if (hit >= 0) return hit;
  index->Add(IsoIndex::Key(p), static_cast<int64_t>(entries->size()));
  entries->push_back({p});
  return static_cast<int64_t>(entries->size()) - 1;
}

Pattern Unlabeled(int32_t n,
                  const std::vector<std::pair<VertexId, VertexId>>& edges) {
  Pattern p;
  for (int32_t v = 0; v < n; ++v) p.AddVertex(0);
  for (const auto& [u, v] : edges) p.AddEdge(u, v);
  return p;
}

/// Triangles {0,1,2} and {3,4,5} joined by a perfect matching.
Pattern Prism() {
  return Unlabeled(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5},
                       {0, 3}, {1, 4}, {2, 5}});
}

/// K3,3 with parts {0,1,2} and {3,4,5}.
Pattern K33() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 3; ++u) {
    for (VertexId v = 3; v < 6; ++v) edges.emplace_back(u, v);
  }
  return Unlabeled(6, edges);
}

/// K3,3 numbered with the parts interleaved: {0,2,4} and {1,3,5}.
Pattern K33Interleaved() {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u : {0, 2, 4}) {
    for (VertexId v : {1, 3, 5}) edges.emplace_back(u, v);
  }
  return Unlabeled(6, edges);
}

/// Two n-cycles {0..n-1} and {n..2n-1} with rungs i -- n+i: the n-prism,
/// or with the closing rail edges crossed, the Moebius ladder on 2n
/// vertices. Both are 3-regular.
Pattern Ladder(int32_t n, bool moebius) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i < n; ++i) {
    edges.emplace_back(i, n + i);
    if (i + 1 < n) {
      edges.emplace_back(i, i + 1);
      edges.emplace_back(n + i, n + i + 1);
    }
  }
  if (moebius) {
    edges.emplace_back(n - 1, n);
    edges.emplace_back(2 * n - 1, 0);
  } else {
    edges.emplace_back(n - 1, 0);
    edges.emplace_back(2 * n - 1, n);
  }
  return Unlabeled(2 * n, edges);
}

/// True iff \p e maps \p p injectively into \p g, preserving vertex labels,
/// edges and edge labels.
bool IsEmbedding(const Pattern& p, const LabeledGraph& g,
                 const std::vector<VertexId>& e) {
  if (static_cast<int32_t>(e.size()) != p.NumVertices()) return false;
  for (VertexId u = 0; u < p.NumVertices(); ++u) {
    if (g.Label(e[u]) != p.Label(u)) return false;
    for (VertexId w = 0; w < u; ++w) {
      if (e[w] == e[u]) return false;
    }
  }
  for (const Pattern::LabeledEdge& edge : p.LabeledEdges()) {
    if (!g.HasEdge(e[edge.u], e[edge.v]) ||
        g.EdgeLabel(e[edge.u], e[edge.v]) != edge.label) {
      return false;
    }
  }
  return true;
}

TEST(IsoIndexTest, PrismAndK33ShareAKeyButStayTwoClasses) {
  // Both are 3-regular on 6 equally labeled vertices, so WL refinement
  // cannot tell them apart: the key collides and only VF2 separates them.
  ASSERT_FALSE(ArePatternsIsomorphic(Prism(), K33()));
  EXPECT_EQ(IsoIndex::Key(Prism()), IsoIndex::Key(K33()));

  IsoIndex index;
  std::vector<Entry> entries;
  IsoChecks checks;
  EXPECT_EQ(Admit(&index, &entries, Prism(), &checks), 0);
  EXPECT_EQ(Admit(&index, &entries, K33(), &checks), 1);
  EXPECT_EQ(entries.size(), 2u);
  EXPECT_EQ(checks.skipped, 1);  // the prism: nothing under its key yet
  EXPECT_EQ(checks.run, 1);      // K3,3 against the prism

  // The same holds for the 7-prism and the 14-vertex Moebius ladder, here
  // through the owning IsoSet: each is new once, and only once.
  const Pattern prism7 = Ladder(7, /*moebius=*/false);
  const Pattern moebius14 = Ladder(7, /*moebius=*/true);
  ASSERT_FALSE(ArePatternsIsomorphic(prism7, moebius14));
  EXPECT_EQ(IsoIndex::Key(prism7), IsoIndex::Key(moebius14));
  IsoSet set;
  EXPECT_TRUE(set.Insert(prism7));
  EXPECT_TRUE(set.Insert(moebius14));
  EXPECT_FALSE(set.Insert(moebius14));
  EXPECT_FALSE(set.Insert(prism7));
  EXPECT_EQ(set.checks().skipped, 1);
  EXPECT_EQ(set.checks().run, 1 + 2 + 1);
}

TEST(IsoIndexTest, FirstIsomorphicEntryInAdmissionOrderWins) {
  const std::vector<Entry> entries = {{Prism()}, {K33()}, {K33Interleaved()}};
  const IsoIndex index = IndexOf(entries);
  IsoChecks checks;
  EXPECT_EQ(FindIn(index, entries, K33Interleaved(), 0, &checks), 1);
  EXPECT_EQ(checks.run, 2);  // the prism, then the first K3,3
  EXPECT_EQ(FindIn(index, entries, Prism(), 0, &checks), 0);
  EXPECT_EQ(checks.run, 3);
  EXPECT_EQ(checks.skipped, 0);
}

TEST(IsoIndexTest, FirstIdxSkipsEarlierEntries) {
  const std::vector<Entry> entries = {{K33()}, {Prism()}, {K33Interleaved()}};
  const IsoIndex index = IndexOf(entries);
  IsoChecks checks;
  EXPECT_EQ(FindIn(index, entries, K33(), 1, &checks), 2);
  EXPECT_EQ(checks.run, 2);  // entries 1 and 2 only
  EXPECT_EQ(FindIn(index, entries, K33(), 2, &checks), 2);
  EXPECT_EQ(checks.run, 3);
  EXPECT_EQ(FindIn(index, entries, K33(), 3, &checks), -1);
  EXPECT_EQ(checks.run, 3);
  EXPECT_EQ(FindIn(index, entries, Prism(), 2, &checks), -1);
  EXPECT_EQ(checks.run, 4);
  EXPECT_EQ(checks.skipped, 0);
}

TEST(IsoIndexTest, MapRenumbersEmbeddingsBetweenEntryAndProbe) {
  // A labeled path A-B-C-D; the probe numbers it C, A, D, B, so the map is
  // neither the identity nor its own inverse and a reversed use fails.
  Pattern entry;
  for (LabelId label : {1, 2, 3, 4}) entry.AddVertex(label);
  entry.AddEdge(0, 1, 7);
  entry.AddEdge(1, 2, 8);
  entry.AddEdge(2, 3, 9);
  Pattern probe;
  for (LabelId label : {3, 1, 4, 2}) probe.AddVertex(label);
  probe.AddEdge(1, 3, 7);
  probe.AddEdge(3, 0, 8);
  probe.AddEdge(0, 2, 9);
  // Host graph: the path, plus a second D hanging off C.
  GraphBuilder builder;
  for (LabelId label : {1, 2, 3, 4, 4}) builder.AddVertex(label);
  builder.AddEdge(0, 1, 7);
  builder.AddEdge(1, 2, 8);
  builder.AddEdge(2, 3, 9);
  builder.AddEdge(2, 4, 9);
  const LabeledGraph graph = std::move(builder.Build()).value();

  const std::vector<Entry> entries = {{entry}};
  const IsoIndex index = IndexOf(entries);
  IsoChecks checks;
  std::vector<VertexId> map;
  ASSERT_EQ(FindIn(index, entries, probe, 0, &checks, &map), 0);
  ASSERT_EQ(map, (std::vector<VertexId>{1, 3, 0, 2}));

  // The direction a duplicate fold uses: an embedding e of the probe
  // becomes u -> e[map[u]], an embedding of the entry.
  const OccurrenceList probe_embeddings = FindEmbeddings(probe, graph);
  ASSERT_EQ(probe_embeddings.size(), 2u);
  for (OccurrenceList::Row e : probe_embeddings) {
    std::vector<VertexId> renumbered(map.size());
    for (size_t u = 0; u < map.size(); ++u) renumbered[u] = e[map[u]];
    EXPECT_TRUE(IsEmbedding(entry, graph, renumbered));
  }
  // And back: an embedding f of the entry places f[u] at probe vertex
  // map[u].
  const OccurrenceList entry_embeddings = FindEmbeddings(entry, graph);
  ASSERT_EQ(entry_embeddings.size(), 2u);
  for (OccurrenceList::Row f : entry_embeddings) {
    std::vector<VertexId> renumbered(map.size());
    for (size_t u = 0; u < map.size(); ++u) renumbered[map[u]] = f[u];
    EXPECT_TRUE(IsEmbedding(probe, graph, renumbered));
  }
}

TEST(IsoIndexTest, CountersCountEachLookupOnce) {
  IsoIndex index;
  std::vector<Entry> entries;
  IsoChecks checks;
  // A key miss from position 0 is settled by the key alone.
  EXPECT_EQ(FindIn(index, entries, Prism(), 0, &checks), -1);
  EXPECT_EQ(checks.skipped, 1);
  EXPECT_EQ(checks.run, 0);
  // A lookup resumed past position 0 continues an earlier one: a key miss
  // there adds nothing.
  EXPECT_EQ(FindIn(index, entries, Prism(), 4, &checks), -1);
  EXPECT_EQ(checks.skipped, 1);

  // A split lookup: the first half scans a snapshot, the second resumes at
  // the snapshot size after more entries were added. It counts one skip
  // (the key was absent when it started) plus the VF2 runs of both halves.
  IsoChecks split;
  EXPECT_EQ(FindIn(index, entries, K33(), 0, &split), -1);
  const int64_t snapshot_size = static_cast<int64_t>(entries.size());
  index.Add(IsoIndex::Key(Prism()), 0);
  entries.push_back({Prism()});
  index.Add(IsoIndex::Key(K33Interleaved()), 1);
  entries.push_back({K33Interleaved()});
  EXPECT_EQ(FindIn(index, entries, K33(), snapshot_size, &split), 1);
  EXPECT_EQ(split.skipped, 1);
  EXPECT_EQ(split.run, 2);
}

}  // namespace
}  // namespace spidermine
