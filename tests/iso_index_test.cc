#include "pattern/iso_index.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "common/rng.h"
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

/// \p p with its vertices renumbered by a random permutation.
Pattern Permuted(const Pattern& p, Rng* rng) {
  std::vector<VertexId> to(static_cast<size_t>(p.NumVertices()));
  for (VertexId v = 0; v < p.NumVertices(); ++v) to[v] = v;
  rng->Shuffle(&to);
  std::vector<LabelId> labels(to.size());
  for (VertexId v = 0; v < p.NumVertices(); ++v) labels[to[v]] = p.Label(v);
  Pattern out;
  for (LabelId label : labels) out.AddVertex(label);
  for (const Pattern::LabeledEdge& edge : p.LabeledEdges()) {
    out.AddEdge(to[edge.u], to[edge.v], edge.label);
  }
  return out;
}

/// A random connected pattern of 1-6 vertices over labels {0, 1, 2}, its
/// edge labels 0 or (one pattern in four) 0-1.
Pattern RandomSmallPattern(Rng* rng) {
  const auto n = static_cast<int32_t>(rng->UniformInt(1, 6));
  const bool edge_labels = rng->Bernoulli(0.25);
  Pattern p;
  for (int32_t v = 0; v < n; ++v) {
    p.AddVertex(static_cast<LabelId>(rng->UniformInt(0, 2)));
  }
  auto edge_label = [&] {
    return edge_labels ? static_cast<EdgeLabelId>(rng->UniformInt(0, 1)) : 0;
  };
  for (VertexId v = 1; v < n; ++v) {  // a random spanning tree
    p.AddEdge(static_cast<VertexId>(rng->UniformInt(0, v - 1)), v,
              edge_label());
  }
  for (int extra = static_cast<int>(rng->UniformInt(0, 3)); extra > 0;
       --extra) {
    const auto u = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    const auto v = static_cast<VertexId>(rng->UniformInt(0, n - 1));
    if (u != v) p.AddEdge(u, v, edge_label());  // ignored when present
  }
  return p;
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

/// The flat table against a brute-force scan: several thousand random
/// small patterns (isomorphic repeats and WL-colliding pairs among them)
/// are added to one index, interleaved with lookups at random first_idx.
/// Every result is the first VF2-isomorphic entry at or after first_idx,
/// and every lookup counts a skip exactly when nothing was ever added
/// under its key, and one VF2 run per same-key entry it passed.
TEST(IsoIndexTest, MatchesABruteForceScanWhileGrowing) {
  Rng rng(2027);
  const std::vector<Pattern> colliding = {Prism(), K33(),
                                          Ladder(7, /*moebius=*/false),
                                          Ladder(7, /*moebius=*/true)};
  IsoIndex index;
  std::vector<Entry> entries;
  std::vector<uint64_t> keys;
  std::set<uint64_t> distinct_keys;
  auto random_pattern = [&]() -> Pattern {
    const double pick = rng.UniformReal();
    if (pick < 0.1) return Permuted(colliding[rng.Index(4)], &rng);
    if (pick < 0.4 && !entries.empty()) {
      return Permuted(entries[rng.Index(entries.size())].pattern, &rng);
    }
    return RandomSmallPattern(&rng);
  };
  auto same_shape = [](const Pattern& a, const Pattern& b) {
    return a.NumVertices() == b.NumVertices() &&
           a.NumEdges() == b.NumEdges() &&
           a.SortedLabels() == b.SortedLabels();
  };
  int64_t hits = 0;
  for (int step = 0; step < 6000; ++step) {
    if (step % 2 == 0) {
      Pattern p = random_pattern();
      const uint64_t key = IsoIndex::Key(p);
      index.Add(key, static_cast<int64_t>(entries.size()));
      entries.push_back({std::move(p)});
      keys.push_back(key);
      distinct_keys.insert(key);
      continue;
    }
    const Pattern probe = random_pattern();
    const uint64_t key = IsoIndex::Key(probe);
    const auto n = static_cast<int64_t>(entries.size());
    const int64_t first_idx =
        rng.Bernoulli(0.5) ? 0 : rng.UniformInt(0, n);
    int64_t expected = -1;
    for (int64_t j = first_idx; j < n && expected < 0; ++j) {
      const Pattern& entry = entries[static_cast<size_t>(j)].pattern;
      if (same_shape(entry, probe) && ArePatternsIsomorphic(entry, probe)) {
        expected = j;
      }
    }
    IsoChecks want;
    if (distinct_keys.count(key) == 0) {
      want.skipped = first_idx == 0 ? 1 : 0;
    } else {
      const int64_t last = expected >= 0 ? expected : n - 1;
      for (int64_t j = first_idx; j <= last; ++j) {
        if (keys[static_cast<size_t>(j)] == key) ++want.run;
      }
    }
    IsoChecks got;
    std::vector<VertexId> map;
    ASSERT_EQ(FindIn(index, entries, probe, first_idx, &got, &map), expected)
        << "step " << step << ", first_idx " << first_idx << ": "
        << probe.ToString();
    EXPECT_EQ(got.skipped, want.skipped) << "step " << step;
    EXPECT_EQ(got.run, want.run) << "step " << step;
    if (expected >= 0) {
      ++hits;
      // The map is an isomorphism from the entry onto the probe.
      const Pattern& entry = entries[static_cast<size_t>(expected)].pattern;
      for (const Pattern::LabeledEdge& edge : entry.LabeledEdges()) {
        ASSERT_TRUE(probe.HasEdge(map[edge.u], map[edge.v]));
        EXPECT_EQ(probe.EdgeLabel(map[edge.u], map[edge.v]), edge.label);
      }
    }
  }
  EXPECT_GT(hits, 300);
  // The key table starts at 16 slots and doubles whenever it would be more
  // than half full, so this many keys made it grow at least six times.
  EXPECT_GT(distinct_keys.size(), 512u);
}

/// Lookups are read-only: four threads may search one index at once while
/// nothing is added, and each gets what a lone lookup gets.
TEST(IsoIndexTest, ConcurrentLookupsAgreeWithSerialOnes) {
  Rng rng(99);
  std::vector<Entry> entries;
  IsoIndex index;
  for (int i = 0; i < 400; ++i) {
    Pattern p = i % 50 == 0 ? Permuted(Ladder(7, i % 100 == 0), &rng)
                            : RandomSmallPattern(&rng);
    index.Add(IsoIndex::Key(p), static_cast<int64_t>(entries.size()));
    entries.push_back({std::move(p)});
  }
  std::vector<Pattern> probes;
  for (int i = 0; i < 400; ++i) {
    probes.push_back(i % 2 == 0
                         ? Permuted(entries[rng.Index(entries.size())].pattern,
                                    &rng)
                         : RandomSmallPattern(&rng));
  }
  std::vector<int64_t> serial;
  IsoChecks serial_checks;
  for (const Pattern& probe : probes) {
    serial.push_back(FindIn(index, entries, probe, 0, &serial_checks));
  }
  std::vector<std::vector<int64_t>> found(4);
  std::vector<IsoChecks> checks(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (const Pattern& probe : probes) {
        found[t].push_back(FindIn(index, entries, probe, 0, &checks[t]));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_EQ(found[t], serial) << "thread " << t;
    EXPECT_EQ(checks[t].skipped, serial_checks.skipped);
    EXPECT_EQ(checks[t].run, serial_checks.run);
  }
}

}  // namespace
}  // namespace spidermine
