#include "spidermine/growth.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <type_traits>
#include <utility>

#include "common/fnv1a.h"
#include "common/stamp_set.h"
#include "pattern/iso_index.h"
#include "support/support_measure.h"

namespace spidermine {

namespace {

/// A star leaf as the growth engine keys it: the connecting edge's label
/// plus the leaf vertex label. For edge-unlabeled graphs the edge label is
/// always 0 and everything degenerates to plain vertex-label handling.
/// Identical to the SpiderStore leaf representation, so store spans are
/// consumed without materialization.
using LeafKey = SpiderLeafKey;

/// Sorted multiset difference a - b into \p out (b must be a sub-multiset
/// of a for the difference to capture "new leaves"; extra b elements are
/// ignored).
void MultisetDifference(std::span<const LeafKey> a, std::span<const LeafKey> b,
                        std::vector<LeafKey>* out) {
  out->clear();
  size_t i = 0;
  size_t j = 0;
  while (i < a.size()) {
    if (j < b.size() && a[i] == b[j]) {
      ++i;
      ++j;
    } else if (j < b.size() && b[j] < a[i]) {
      ++j;
    } else {
      out->push_back(a[i]);
      ++i;
    }
  }
}

/// True iff sorted multiset \p sub is contained in sorted multiset \p super.
bool MultisetContains(std::span<const LeafKey> super,
                      std::span<const LeafKey> sub) {
  size_t i = 0;
  size_t j = 0;
  while (j < sub.size()) {
    if (i >= super.size()) return false;
    if (super[i] == sub[j]) {
      ++i;
      ++j;
    } else if (super[i] < sub[j]) {
      ++i;
    } else {
      return false;
    }
  }
  return true;
}

/// (edge label, vertex label) keys of the pattern-neighbors of \p v, sorted,
/// into \p keys (the keys of N_P(v), the edges a spider must cover under
/// the Maximal Overlap condition).
void PatternNeighborKeys(const Pattern& p, VertexId v,
                         std::vector<LeafKey>* keys) {
  keys->clear();
  const std::span<const VertexId> nbrs = p.Neighbors(v);
  for (size_t i = 0; i < nbrs.size(); ++i) {
    keys->emplace_back(p.EdgeLabelAt(v, i), p.Label(nbrs[i]));
  }
  std::sort(keys->begin(), keys->end());
}

using LeafGroups = std::vector<std::pair<LeafKey, int32_t>>;

/// Groups a sorted leaf-key multiset into (key, count) runs.
void GroupLeafKeys(std::span<const LeafKey> keys, LeafGroups* groups) {
  groups->clear();
  for (const LeafKey& k : keys) {
    if (!groups->empty() && groups->back().first == k) {
      ++groups->back().second;
    } else {
      groups->emplace_back(k, 1);
    }
  }
}

/// Per-thread buffers of the leaf enumeration (BuildSeed, TryExtend),
/// reused by every call on the thread. Neither caller nests another.
struct LeafScratch {
  std::vector<LeafKey> new_leaves;
  LeafGroups groups;
  std::vector<std::vector<VertexId>> avail;  // per group; see below
  std::vector<VertexId> chosen;
  std::vector<int32_t> idx;
  std::vector<VertexId> anchors_used;
};

LeafScratch& ThreadLeafScratch() {
  thread_local LeafScratch scratch;
  return scratch;
}

/// Availability lists per leaf-key group among the neighbors of \p center,
/// excluding the sorted \p forbidden (already-embedded images), into the
/// first groups.size() lists of \p avail.
void AvailabilityLists(const LabeledGraph& graph, VertexId center,
                       const LeafGroups& groups,
                       std::span<const VertexId> forbidden,
                       std::vector<std::vector<VertexId>>* avail) {
  if (avail->size() < groups.size()) avail->resize(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) (*avail)[g].clear();
  const std::span<const VertexId> neighbors = graph.Neighbors(center);
  for (size_t i = 0; i < neighbors.size(); ++i) {
    const VertexId x = neighbors[i];
    if (std::binary_search(forbidden.begin(), forbidden.end(), x)) continue;
    const LeafKey key{graph.EdgeLabelAt(center, i), graph.Label(x)};
    for (size_t g = 0; g < groups.size(); ++g) {
      if (key == groups[g].first) (*avail)[g].push_back(x);
    }
  }
}

/// Enumerates every way to choose, for each (key, count) group, `count`
/// distinct vertices from that group's availability list as an ascending
/// COMBINATION: automorphic reassignments of equal-key leaves are produced
/// once. This is the occurrence-list semantics of GrowthPattern::embeddings;
/// it under-counts E[P] on purpose. \p emit receives the concatenated
/// choice (a span of \p chosen) and returns false to stop; the function
/// returns false when stopped early. \p chosen and \p idx are scratch,
/// returned as they came.
template <typename Emit>
bool EnumerateLeafCombinations(const LeafGroups& groups,
                               const std::vector<std::vector<VertexId>>& avail,
                               size_t group_idx, std::vector<VertexId>* chosen,
                               std::vector<int32_t>* idx, Emit& emit) {
  if (group_idx == groups.size()) {
    return emit(std::span<const VertexId>(*chosen));
  }
  const int32_t need = groups[group_idx].second;
  const std::vector<VertexId>& pool = avail[group_idx];
  if (static_cast<int32_t>(pool.size()) < need) return true;  // no choice
  // Iterative combination enumeration over `pool`; this level's indices
  // are idx[at, at + need).
  const size_t at = idx->size();
  for (int32_t i = 0; i < need; ++i) idx->push_back(i);
  // Deeper levels push onto idx, so index it rather than hold a pointer.
  auto pick = [idx, at](int32_t i) -> int32_t& {
    return (*idx)[at + static_cast<size_t>(i)];
  };
  bool finished = true;
  while (true) {
    const size_t base = chosen->size();
    for (int32_t i = 0; i < need; ++i) chosen->push_back(pool[pick(i)]);
    const bool keep_going = EnumerateLeafCombinations(
        groups, avail, group_idx + 1, chosen, idx, emit);
    chosen->resize(base);
    if (!keep_going) {
      finished = false;
      break;
    }
    // Advance combination.
    int32_t pos = need - 1;
    while (pos >= 0 &&
           pick(pos) == static_cast<int32_t>(pool.size()) - need + pos) {
      --pos;
    }
    if (pos < 0) break;
    ++pick(pos);
    for (int32_t i = pos + 1; i < need; ++i) pick(i) = pick(i - 1) + 1;
  }
  idx->resize(at);
  return finished;
}

template <typename T>
void SortUnique(std::vector<T>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

uint64_t MergeKey(int32_t spider_id, VertexId anchor) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(spider_id)) << 32) |
         static_cast<uint32_t>(anchor);
}

/// The union-shape memo of one examined pattern pair (see RunMerges), in
/// flat buffers reused across pairs: each shape key and the group map of
/// its first instance are int32 runs appended to one buffer each, and an
/// open-addressed table of shape indices, compared by hash and then
/// exactly, finds them.
class ShapeMemo {
 public:
  /// Forgets every shape, keeping the buffers.
  void Reset() {
    keys_.clear();
    reps_.clear();
    shapes_.clear();
    table_.assign(kInitialSlots, -1);
  }

  static uint64_t Hash(std::span<const int32_t> key) {
    Fnv1a hash;
    for (int32_t at : key) hash.MixWord(static_cast<uint32_t>(at));
    return hash.hash();
  }

  /// The index of the shape equal to \p key (\p hash = Hash(key)), or -1.
  int32_t Find(std::span<const int32_t> key, uint64_t hash) const {
    const size_t mask = table_.size() - 1;
    for (size_t slot = SlotOf(hash);; slot = (slot + 1) & mask) {
      const int32_t shape = table_[slot];
      if (shape < 0) return -1;
      const Shape& entry = shapes_[static_cast<size_t>(shape)];
      if (entry.hash == hash &&
          std::equal(key.begin(), key.end(), keys_.begin() + entry.key)) {
        return shape;
      }
    }
  }

  /// Records a shape absent so far: its \p key, the union group its
  /// instances join and \p rep, each group vertex's position in e1 ++ e2.
  /// Returns its index.
  int32_t Insert(std::span<const int32_t> key, uint64_t hash, size_t group,
                 std::span<const int32_t> rep) {
    if (2 * (shapes_.size() + 1) > table_.size()) {
      table_.assign(2 * table_.size(), -1);
      for (size_t i = 0; i < shapes_.size(); ++i) {
        table_[FreeSlot(shapes_[i].hash)] = static_cast<int32_t>(i);
      }
    }
    const auto shape = static_cast<int32_t>(shapes_.size());
    table_[FreeSlot(hash)] = shape;
    shapes_.push_back({hash, keys_.size(), reps_.size(), rep.size(), group});
    keys_.insert(keys_.end(), key.begin(), key.end());
    reps_.insert(reps_.end(), rep.begin(), rep.end());
    return shape;
  }

  size_t group(int32_t shape) const {
    return shapes_[static_cast<size_t>(shape)].group;
  }
  std::span<const int32_t> rep(int32_t shape) const {
    const Shape& entry = shapes_[static_cast<size_t>(shape)];
    return {reps_.data() + entry.rep, entry.rep_size};
  }

 private:
  static constexpr size_t kInitialSlots = 32;  // a power of two

  struct Shape {
    uint64_t hash;
    size_t key;  // offset in keys_
    size_t rep;  // offset in reps_
    size_t rep_size;
    size_t group;
  };

  size_t SlotOf(uint64_t hash) const {
    return static_cast<size_t>(hash ^ (hash >> 29)) & (table_.size() - 1);
  }
  size_t FreeSlot(uint64_t hash) const {
    size_t slot = SlotOf(hash);
    while (table_[slot] >= 0) slot = (slot + 1) & (table_.size() - 1);
    return slot;
  }

  std::vector<int32_t> keys_;
  std::vector<int32_t> reps_;
  std::vector<Shape> shapes_;
  std::vector<int32_t> table_;  // shape index, -1 = empty
};

/// A growth round's pattern pool: patterns by position, dead flags and the
/// isomorphism-class index over them. Each lineage and the coordinator's
/// round state hold one. Admit may move every pattern, so no reference into
/// `patterns` may be held across it.
struct PatternPool {
  std::vector<GrowthPattern> patterns;
  std::vector<char> dead;
  IsoIndex index;

  int64_t size() const { return static_cast<int64_t>(patterns.size()); }

  int64_t Admit(GrowthPattern gp) {
    const int64_t idx = size();
    if (gp.iso_hash == 0) gp.iso_hash = IsoIndex::Key(gp.pattern);
    index.Add(gp.iso_hash, idx);
    patterns.push_back(std::move(gp));
    dead.push_back(0);
    return idx;
  }

  /// IsoIndex::Find for \p gp (its iso_hash set); \p iso gets the map from
  /// the hit's vertices to gp's, as OccurrenceFolder::Fold takes it.
  int64_t FindDuplicate(const GrowthPattern& gp, int64_t first_idx,
                        std::vector<VertexId>* iso, IsoChecks* checks) const {
    return index.Find(gp.iso_hash, gp.pattern, first_idx, patterns, iso,
                      checks);
  }
};

}  // namespace

static_assert(std::is_nothrow_move_constructible_v<GrowthPattern>,
              "PatternPool's vector must move, not copy, on growth");

/// The intra-round expansion state of ONE input pattern, owned entirely by
/// the worker expanding it. pool[0] is the input; later entries are the
/// extensions discovered this round. Registry ids are LOCAL pool indices;
/// the coordinator rewrites them to global pattern ids. An empty lineage
/// allocates nothing.
struct GrowthEngine::Lineage {
  PatternPool pool;
  MergeRegistry registry;
  MineStats stats;  // the coordinator adds these to the query's in order
  bool any_growth = false;
  bool truncated = false;
};

/// A duplicate's embeddings waiting to be folded into the pool pattern it
/// duplicates, with the map from that pattern's vertices to the
/// duplicate's (see OccurrenceFolder::Fold).
struct GrowthEngine::PendingFold {
  int64_t target = 0;
  OccurrenceList embeddings;
  std::vector<VertexId> iso;
};

/// Coordinator-side round state: the union of all lineages after stable
/// cross-lineage dedup, plus the merge machinery (Algorithm 4 buffers).
struct GrowthEngine::RoundState {
  PatternPool pool;
  MergeRegistry registry;
  bool any_growth = false;
  bool truncated = false;
};

GrowthEngine::GrowthEngine(const LabeledGraph* graph, const SpiderIndex* index,
                           const SessionConfig* session,
                           const QueryConfig* query, MineStats* stats,
                           ThreadPool& pool, const CancellationToken& token)
    : graph_(graph),
      index_(index),
      session_(session),
      query_(query),
      stats_(stats),
      pool_(pool),
      token_(token) {}

int64_t GrowthEngine::Support(const GrowthPattern& gp) const {
  SupportContext ctx;
  ctx.txn_of_vertex = session_->txn_of_vertex;
  ctx.txn_map = session_->txn_map;
  ctx.txn_sample = txn_sample_;
  return ComputeSupport(query_->support_measure, gp.pattern, gp.embeddings,
                        ctx);
}

GrowthPattern GrowthEngine::BuildSeed(int32_t spider_id,
                                      MineStats* local) const {
  const SpiderStore& store = index_->store();
  GrowthPattern gp;
  gp.pattern = store.PatternOf(spider_id);
  gp.embeddings = OccurrenceList(gp.pattern.NumVertices());

  LeafScratch& scratch = ThreadLeafScratch();
  GroupLeafKeys(store.leaves(spider_id), &scratch.groups);
  for (VertexId anchor : store.anchors(spider_id)) {
    if (static_cast<int64_t>(gp.embeddings.size()) >=
        query_->max_embeddings_per_pattern) {
      ++local->embedding_cap_hits;
      break;
    }
    if (scratch.groups.empty()) {
      gp.embeddings.AppendRow()[0] = anchor;
      continue;
    }
    // A leaf never lands on its head: simple graphs have no self-loops.
    AvailabilityLists(*graph_, anchor, scratch.groups, {}, &scratch.avail);
    int64_t emitted_here = 0;
    auto emit = [&](std::span<const VertexId> leafs) {
      const std::span<VertexId> row = gp.embeddings.AppendRow();
      row[0] = anchor;
      std::copy(leafs.begin(), leafs.end(), row.begin() + 1);
      ++emitted_here;
      return emitted_here < query_->max_seed_embeddings_per_anchor &&
             static_cast<int64_t>(gp.embeddings.size()) <
                 query_->max_embeddings_per_pattern;
    };
    EnumerateLeafCombinations(scratch.groups, scratch.avail, 0,
                              &scratch.chosen, &scratch.idx, emit);
  }
  DedupEmbeddingsByImage(&gp.embeddings);
  gp.support = Support(gp);
  // Boundary: the outermost layer (leaves), or the head for 0-leaf spiders.
  if (gp.pattern.NumVertices() == 1) {
    gp.boundary = {0};
  } else {
    for (VertexId v = 1; v < gp.pattern.NumVertices(); ++v) {
      gp.boundary.push_back(v);
    }
  }
  return gp;
}

std::vector<GrowthPattern> GrowthEngine::SeedPatterns(
    const std::vector<int32_t>& picks) {
  const int64_t n = static_cast<int64_t>(picks.size());
  std::vector<GrowthPattern> out(picks.size());
  std::vector<MineStats> local(picks.size());
  auto build = [this, &picks, &out, &local](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      out[i] = BuildSeed(picks[i], &local[i]);
    }
  };
  // Grain 1: per-seed embedding enumeration is highly skewed (hub anchors).
  pool_.ParallelForChunks(n, /*grain=*/1, build, &token_);
  // Serial epilogue in input order: id assignment and stat folding are
  // identical at any thread count.
  for (int64_t i = 0; i < n; ++i) {
    stats_->Add(local[i]);
    out[i].id = next_id_++;
  }
  return out;
}

bool GrowthEngine::TryExtend(Lineage* ls, std::vector<int64_t>* queue,
                             int64_t base_idx, VertexId v,
                             std::span<const LeafKey> np_keys,
                             int32_t spider_id,
                             const OccurrenceList& sorted_images,
                             bool* support_preserved) const {
  ++ls->stats.extend_calls;
  const SpiderStore& store = index_->store();
  const GrowthPattern& base = ls->pool.patterns[base_idx];

  const std::span<const LeafKey> spider_leaves = store.leaves(spider_id);
  // Maximal Overlap (condition I): the spider must cover N_P(v).
  if (!MultisetContains(spider_leaves, np_keys)) return false;
  LeafScratch& scratch = ThreadLeafScratch();
  MultisetDifference(spider_leaves, np_keys, &scratch.new_leaves);
  if (scratch.new_leaves.empty()) return false;

  // Embedding extension (Algorithm 3): for each base embedding whose image
  // of v anchors the spider, assign the new leaves to distinct fresh
  // neighbors (Internal Integrity, condition II: never reuse an image
  // vertex, so no edge between existing vertices is introduced). The
  // extended pattern itself is built only once the rows pass the raw-count
  // pre-check.
  GrowthPattern q;
  const VertexId first_new = base.pattern.NumVertices();
  q.embeddings = OccurrenceList(
      first_new + static_cast<int32_t>(scratch.new_leaves.size()));
  GroupLeafKeys(scratch.new_leaves, &scratch.groups);
  std::vector<VertexId>& anchors_used = scratch.anchors_used;
  anchors_used.clear();
  bool cap_hit = false;
  for (size_t ei = 0; ei < base.embeddings.size(); ++ei) {
    if (cap_hit) break;
    const OccurrenceList::Row e = base.embeddings[ei];
    VertexId gv = e[v];
    if (!store.IsAnchoredAt(spider_id, gv)) continue;
    AvailabilityLists(*graph_, gv, scratch.groups, sorted_images[ei],
                      &scratch.avail);
    bool emitted_for_anchor = false;
    auto emit = [&](std::span<const VertexId> leafs) {
      const std::span<VertexId> row = q.embeddings.AppendRow();
      std::copy(e.begin(), e.end(), row.begin());
      std::copy(leafs.begin(), leafs.end(), row.begin() + e.size());
      emitted_for_anchor = true;
      if (static_cast<int64_t>(q.embeddings.size()) >=
          query_->max_embeddings_per_pattern) {
        cap_hit = true;
        return false;
      }
      return true;
    };
    EnumerateLeafCombinations(scratch.groups, scratch.avail, 0,
                              &scratch.chosen, &scratch.idx, emit);
    if (emitted_for_anchor) anchors_used.push_back(gv);
  }
  if (cap_hit) ++ls->stats.embedding_cap_hits;
  if (static_cast<int64_t>(q.embeddings.size()) < query_->min_support &&
      query_->support_measure != SupportMeasureKind::kTransaction) {
    return false;
  }
  q.pattern = base.pattern;
  for (const LeafKey& leaf : scratch.new_leaves) {
    VertexId nv = q.pattern.AddVertex(leaf.second);
    q.pattern.AddEdge(v, nv, leaf.first);
  }
  DedupEmbeddingsByImage(&q.embeddings);
  q.support = Support(q);
  if (q.support < query_->min_support) return false;
  if (q.support == base.support) *support_preserved = true;

  ++ls->stats.growth_steps;

  q.iso_hash = IsoIndex::Key(q.pattern);
  std::vector<VertexId> iso;
  const int64_t dup =
      ls->pool.FindDuplicate(q, /*first_idx=*/0, &iso, &ls->stats.iso);
  if (dup >= 0) {
    // Redundant generation (an isomorphic pattern exists): fold the new
    // embeddings into the existing pattern instead of duplicating it.
    // Support is recomputed eagerly: the lineage may extend `other` later
    // and its closedness checks compare against the up-to-date value.
    GrowthPattern& other = ls->pool.patterns[dup];
    OccurrenceFolder(&other.embeddings)
        .Fold(q.embeddings, iso, query_->max_embeddings_per_pattern);
    other.support = Support(other);
    other.merged_ever |= base.merged_ever;
    return false;
  }

  q.boundary = base.boundary;
  q.cursor = base.cursor + 1;
  q.next_boundary = base.next_boundary;
  for (VertexId nv = first_new; nv < q.pattern.NumVertices(); ++nv) {
    q.next_boundary.push_back(nv);
  }
  q.merged_ever = base.merged_ever;
  // `base` dangles from here on: Admit may move the pool.
  const int64_t idx = ls->pool.Admit(std::move(q));
  queue->push_back(idx);
  ls->any_growth = true;

  // Register spider usage for merge detection (Algorithm 4's buffers).
  SortUnique(&anchors_used);
  for (VertexId a : anchors_used) {
    ls->registry.emplace_back(MergeKey(spider_id, a), idx);
  }
  return true;
}

void GrowthEngine::ExpandLineage(GrowthPattern input, Lineage* ls,
                                 int64_t pattern_cap) const {
  // Per-thread buffers of one boundary step, reused across steps and
  // lineages (TryExtend uses LeafScratch, not these).
  struct ExpandScratch {
    std::vector<LeafKey> np_keys;
    StampSet images;
    StampSet spider_ids;
    std::vector<int32_t> candidates;
    OccurrenceList sorted_images;
    std::vector<int64_t> queue;  // pool indices, read from `head`
  };
  thread_local ExpandScratch scratch;
  std::vector<int64_t>& queue = scratch.queue;
  queue.clear();
  queue.push_back(ls->pool.Admit(std::move(input)));

  for (size_t head = 0; head < queue.size();) {
    if (Cancelled()) {
      // Budget exhausted mid-round: stop extending; patterns discovered so
      // far are finalized as-is by the coordinator.
      ls->truncated = true;
      break;
    }
    const int64_t idx = queue[head++];
    if (ls->pool.dead[idx]) continue;
    // `cur` is read only up to the TryExtend loop, which admits.
    const GrowthPattern& cur = ls->pool.patterns[idx];
    if (cur.cursor >= cur.boundary.size()) continue;  // finished this round
    if (cur.exhausted) continue;
    const VertexId v = cur.boundary[cur.cursor];

    // ---- Candidate spiders at v (paper's Spider(v)): closed spiders
    // anchored at an image of v, with matching head label, covering N_P(v)
    // and adding at least one new leaf; each distinct spider is tested
    // once, and the candidates are taken in ascending id order. Only closed
    // stars (no super-star with the same anchors) are growth units: that
    // drops redundant branches without changing reachable patterns.
    PatternNeighborKeys(cur.pattern, v, &scratch.np_keys);
    scratch.images.Clear();
    scratch.spider_ids.Clear();
    scratch.candidates.clear();
    const SpiderStore& store = index_->store();
    const LabelId label_v = cur.pattern.Label(v);
    for (OccurrenceList::Row e : cur.embeddings) {
      if (!scratch.images.Insert(e[v])) continue;
      for (int32_t sid : index_->SpidersAt(e[v])) {
        if (!scratch.spider_ids.Insert(sid)) continue;
        if (!store.closed(sid)) continue;
        if (store.head_label(sid) != label_v) continue;
        const std::span<const LeafKey> leaves = store.leaves(sid);
        if (leaves.size() <= scratch.np_keys.size()) continue;
        if (!MultisetContains(leaves, scratch.np_keys)) continue;
        scratch.candidates.push_back(sid);
      }
    }
    std::sort(scratch.candidates.begin(), scratch.candidates.end());

    // Hoist per-embedding sorted images across all candidate spiders.
    if (!scratch.candidates.empty()) {
      scratch.sorted_images.Reset(cur.embeddings.width());
      scratch.sorted_images.reserve(cur.embeddings.size());
      for (OccurrenceList::Row e : cur.embeddings) {
        const std::span<VertexId> row = scratch.sorted_images.AppendRow();
        std::copy(e.begin(), e.end(), row.begin());
        std::sort(row.begin(), row.end());
      }
    }

    bool support_preserved = false;
    for (int32_t sid : scratch.candidates) {
      if (ls->pool.size() >= pattern_cap) {
        ls->truncated = true;
        ++ls->stats.pattern_cap_hits;
        break;
      }
      if (Cancelled()) {
        ls->truncated = true;
        break;
      }
      TryExtend(ls, &queue, idx, v, scratch.np_keys, sid,
                scratch.sorted_images, &support_preserved);
    }

    if (support_preserved) {
      // Non-closed: some extension kept every occurrence (Algorithm 2
      // line 22-23); drop the sub-pattern.
      ls->pool.dead[idx] = 1;
      ++ls->stats.nonclosed_dropped;
      continue;
    }
    ++ls->pool.patterns[idx].cursor;
    queue.push_back(idx);
  }
}

void GrowthEngine::RunMerges(RoundState* rs, const MergeRegistry& previous) {
  // ---- Bucket collection (serial): gather candidate pattern-id sets per
  // colliding (spider, anchor) key, current round first, then cross the
  // previous round (Buf_cur x Buf_pre), resolved to live pool entries.
  // Sorting the registry once visits keys in ascending order with each
  // key's ids as one run, so the merge sequence is independent of how the
  // registry was assembled; it is also the form `previous` is kept in.
  MergeRegistry& current = rs->registry;
  SortUnique(&current);
  // Pattern id -> pool index, sorted by id. Ids need not ascend with the
  // index: the session re-sorts a round's input by size when Stage II made
  // no merge.
  std::vector<std::pair<int64_t, int64_t>> id_to_pool;
  id_to_pool.reserve(static_cast<size_t>(rs->pool.size()));
  for (int64_t idx = 0; idx < rs->pool.size(); ++idx) {
    id_to_pool.emplace_back(rs->pool.patterns[idx].id, idx);
  }
  std::sort(id_to_pool.begin(), id_to_pool.end());
  // The live pool index of pattern \p id, or -1.
  auto live_index = [rs, &id_to_pool](int64_t id) -> int64_t {
    const auto it =
        std::upper_bound(id_to_pool.begin(), id_to_pool.end(),
                         std::make_pair(id, INT64_MAX));
    if (it == id_to_pool.begin() || std::prev(it)->first != id) return -1;
    const int64_t idx = std::prev(it)->second;
    return rs->pool.dead[idx] ? -1 : idx;
  };

  // ---- Pair flattening: the pairs a bucket examines are the first
  // max_merge_pairs_per_key (i, j) combinations of its live list in
  // lexicographic order — a deterministic prefix that can be enumerated up
  // front. Flattening them into one task list lets the parallel phase
  // schedule PAIRS, not buckets, so one hot anchor shared by many patterns
  // (the common case on hub vertices) no longer serializes the pass.
  struct PairTask {
    int64_t a = 0;  // pool indices of the examined pair
    int64_t b = 0;
  };
  std::vector<PairTask> tasks;
  std::vector<int64_t> ids;   // one key's ids, this round's and the last's
  std::vector<int64_t> live;  // their live pool indices, in id order
  auto prev = previous.begin();
  for (auto run = current.begin(); run != current.end();) {
    const uint64_t key = run->first;
    ids.clear();
    for (; run != current.end() && run->first == key; ++run) {
      ids.push_back(run->second);
    }
    while (prev != previous.end() && prev->first < key) ++prev;
    for (auto p = prev; p != previous.end() && p->first == key; ++p) {
      ids.push_back(p->second);
    }
    SortUnique(&ids);
    if (ids.size() < 2) continue;
    live.clear();
    for (int64_t id : ids) {
      const int64_t idx = live_index(id);
      if (idx >= 0) live.push_back(idx);
    }
    int32_t pairs_done = 0;
    for (size_t i = 0; i < live.size() &&
         pairs_done < query_->max_merge_pairs_per_key; ++i) {
      for (size_t j = i + 1; j < live.size() &&
           pairs_done < query_->max_merge_pairs_per_key; ++j) {
        ++pairs_done;
        tasks.push_back({live[i], live[j]});
      }
    }
  }
  if (tasks.empty()) return;

  // ---- Parallel phase: each examined pattern pair builds its union
  // candidates against the pre-merge pool SNAPSHOT (read-only — no Admit
  // happens until the fold below), writing into its own slot. Pair outputs
  // therefore depend only on the snapshot and the pair, never on
  // scheduling.
  struct UnionCandidate : GrowthPattern {  // the merge product, plus:
    // First isomorphic pool pattern (-1 = none) and the map from its
    // vertices to this candidate's: the worker looks in the pre-merge
    // snapshot, the fold in what it admitted since.
    int64_t dup = -1;
    std::vector<VertexId> dup_iso;
  };
  struct PairResult {
    std::vector<UnionCandidate> candidates;
    MineStats stats;
    bool cancelled = false;
  };
  std::vector<PairResult> results(tasks.size());
  const PatternPool& snapshot = rs->pool;
  auto build_pair = [this, &snapshot](const PairTask& task, PairResult* out) {
    if (Cancelled()) {
      out->cancelled = true;
      return;
    }
    ++out->stats.merge_attempts;
    const GrowthPattern& a = snapshot.patterns[task.a];
    const GrowthPattern& b = snapshot.patterns[task.b];
    // Per-thread buffers of one pair, reused across pairs.
    struct PairScratch {
      std::vector<std::pair<VertexId, int32_t>> where;
      std::vector<int32_t> last_ej;
      std::vector<std::pair<int32_t, int32_t>> overlaps;
      std::vector<VertexId> verts;
      std::vector<int32_t> up_rep;
      std::vector<int32_t> group_rep;
      std::vector<int32_t> shape;
      ShapeMemo memo;
    };
    thread_local PairScratch scratch;
    // Collect overlapping embedding pairs (ei, ej), ej ascending, then by
    // e2's vertex order, then ei ascending, each pair once. The overlap
    // index holds (graph vertex, row of a) for every image vertex of a,
    // sorted, so one vertex's rows of a are one ascending run. A pair can
    // only repeat within one ej, so a per-row "last ej" stamp dedups it.
    std::vector<std::pair<VertexId, int32_t>>& where = scratch.where;
    where.clear();
    for (size_t ei = 0; ei < a.embeddings.size(); ++ei) {
      for (VertexId gv : a.embeddings[ei]) {
        where.emplace_back(gv, static_cast<int32_t>(ei));
      }
    }
    std::sort(where.begin(), where.end());
    scratch.last_ej.assign(a.embeddings.size(), -1);
    std::vector<std::pair<int32_t, int32_t>>& overlaps = scratch.overlaps;
    overlaps.clear();
    for (size_t ej = 0; ej < b.embeddings.size(); ++ej) {
      const auto row_j = static_cast<int32_t>(ej);
      for (VertexId gv : b.embeddings[ej]) {
        for (auto it = std::lower_bound(where.begin(), where.end(),
                                        std::make_pair(gv, INT32_MIN));
             it != where.end() && it->first == gv; ++it) {
          int32_t& last = scratch.last_ej[static_cast<size_t>(it->second)];
          if (last == row_j) continue;
          last = row_j;
          overlaps.emplace_back(it->second, row_j);
        }
      }
      if (static_cast<int32_t>(overlaps.size()) >=
          query_->max_union_instances) {
        break;
      }
    }
    if (overlaps.empty()) return;

    // Build union instances and group them by structure (within the
    // pair; cross-pair and cross-bucket dedup happens in the fold).
    std::vector<UnionCandidate> unions;
    IsoIndex union_index;  // over `unions`
    // Union-shape memo: an instance's union is fixed, up to vertex
    // numbering, by which positions of e1 ++ e2 name the same graph vertex.
    // Only the first instance of a shape builds and classifies its union.
    // It records the group it joined and `rep`, each group vertex's
    // position in e1 ++ e2, so every instance of the shape enters the group
    // as concat[rep[u]]: in the group pattern's numbering. Exact because
    // groups only append: a repeat would find that same group first.
    ShapeMemo& memo = scratch.memo;
    memo.Reset();
    std::vector<int32_t>& shape = scratch.shape;
    const int32_t na = a.pattern.NumVertices();
    const int32_t nb = b.pattern.NumVertices();
    for (const auto& [ei, ej] : overlaps) {
      const OccurrenceList::Row e1 = a.embeddings[ei];
      const OccurrenceList::Row e2 = b.embeddings[ej];
      auto concat = [&e1, &e2, na](int32_t p) {
        return p < na ? e1[p] : e2[p - na];
      };
      // Key: per e2 position, the e1 position holding the same graph vertex
      // or -1 (embeddings are injective, so e1 positions never repeat).
      shape.clear();
      for (VertexId gv : e2) {
        const auto hit = std::find(e1.begin(), e1.end(), gv);
        const int32_t at =
            hit == e1.end() ? -1 : static_cast<int32_t>(hit - e1.begin());
        shape.push_back(at);
      }
      const uint64_t shape_hash = ShapeMemo::Hash(shape);
      int32_t memo_hit = memo.Find(shape, shape_hash);
      if (memo_hit < 0) {
        // Union vertex set, sorted for a deterministic numbering: union
        // vertex t is verts[t].
        std::vector<VertexId>& verts = scratch.verts;
        verts.assign(e1.begin(), e1.end());
        verts.insert(verts.end(), e2.begin(), e2.end());
        SortUnique(&verts);
        auto pos = [&verts](VertexId gv) {
          return static_cast<VertexId>(
              std::lower_bound(verts.begin(), verts.end(), gv) -
              verts.begin());
        };
        Pattern up;
        for (VertexId gv : verts) up.AddVertex(graph_->Label(gv));
        auto add_edges = [&up, &pos](const Pattern& parent,
                                     OccurrenceList::Row pe) {
          for (VertexId pu = 0; pu < parent.NumVertices(); ++pu) {
            const std::span<const VertexId> nbrs = parent.Neighbors(pu);
            for (size_t i = 0; i < nbrs.size(); ++i) {
              if (pu < nbrs[i]) {
                up.AddEdge(pos(pe[pu]), pos(pe[nbrs[i]]),
                           parent.EdgeLabelAt(pu, i));
              }
            }
          }
        };
        add_edges(a.pattern, e1);
        add_edges(b.pattern, e2);
        std::vector<int32_t>& up_rep = scratch.up_rep;
        up_rep.assign(verts.size(), -1);
        for (int32_t p = 0; p < na + nb; ++p) {
          int32_t& first = up_rep[pos(concat(p))];
          if (first < 0) first = p;
        }
        const uint64_t up_hash = IsoIndex::Key(up);
        std::vector<VertexId> iso;
        const int64_t group = union_index.Find(up_hash, up, /*first_idx=*/0,
                                               unions, &iso, &out->stats.iso);
        if (group >= 0) {
          std::vector<int32_t>& group_rep = scratch.group_rep;
          group_rep.clear();
          for (VertexId uv : iso) group_rep.push_back(up_rep[uv]);
          memo_hit = memo.Insert(shape, shape_hash,
                                 static_cast<size_t>(group), group_rep);
        } else {
          union_index.Add(up_hash, static_cast<int64_t>(unions.size()));
          memo_hit = memo.Insert(shape, shape_hash, unions.size(), up_rep);
          UnionCandidate g;
          g.iso_hash = up_hash;
          g.merged_ever = true;
          g.pattern = std::move(up);
          g.embeddings = OccurrenceList(g.pattern.NumVertices());
          // Next boundary: images of both parents' frontier vertices.
          auto add_boundary = [&](const GrowthPattern& parent,
                                  OccurrenceList::Row pe) {
            for (VertexId pv : parent.boundary) {
              g.next_boundary.push_back(pos(pe[pv]));
            }
            for (VertexId pv : parent.next_boundary) {
              g.next_boundary.push_back(pos(pe[pv]));
            }
          };
          add_boundary(a, e1);
          add_boundary(b, e2);
          SortUnique(&g.next_boundary);
          unions.push_back(std::move(g));
        }
      }
      const std::span<const int32_t> rep = memo.rep(memo_hit);
      const std::span<VertexId> ue =
          unions[memo.group(memo_hit)].embeddings.AppendRow();
      for (size_t u = 0; u < rep.size(); ++u) ue[u] = concat(rep[u]);
    }

    for (UnionCandidate& g : unions) {
      DedupEmbeddingsByImage(&g.embeddings);
      g.support = Support(g);
      if (g.support < query_->min_support) continue;
      // Dedup against the pre-merge pool here, off the coordinator: the
      // snapshot is read-only until the fold, and its entries lead every
      // dedup bucket, so the fold would find this same first hit.
      g.dup = snapshot.FindDuplicate(g, /*first_idx=*/0, &g.dup_iso,
                                     &out->stats.iso);
      out->candidates.push_back(std::move(g));
    }
  };
  auto build_range = [&tasks, &results, &build_pair](int64_t begin,
                                                     int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      build_pair(tasks[static_cast<size_t>(i)],
                 &results[static_cast<size_t>(i)]);
    }
  };
  // Grain 1: pair costs are skewed (embedding-list sizes vary widely).
  pool_.ParallelForChunks(static_cast<int64_t>(tasks.size()), /*grain=*/1,
                          build_range, &token_);

  // ---- Serial fold in sorted (key, pair) order — the same order the old
  // per-bucket serial pass produced candidates in: assign ids, dedup
  // against the evolving pool (duplicates' embeddings wait for ApplyFolds)
  // and admit. Identical at any thread count because candidates and fold
  // order are. The workers already scanned the snapshot entries of each
  // candidate's bucket; only this fold's admissions remain to be checked.
  const int64_t snapshot_size = rs->pool.size();
  std::vector<PendingFold> folds;
  for (size_t i = 0; i < results.size(); ++i) {
    PairResult& result = results[i];
    stats_->Add(result.stats);
    if (result.cancelled) rs->truncated = true;
    for (UnionCandidate& c : result.candidates) {
      c.id = next_id_++;
      if (c.dup < 0) {
        c.dup = rs->pool.FindDuplicate(c, snapshot_size, &c.dup_iso,
                                       &stats_->iso);
      }
      if (c.dup >= 0) {
        rs->pool.patterns[c.dup].merged_ever = true;  // now a merge product
        folds.push_back({c.dup, std::move(c.embeddings), std::move(c.dup_iso)});
        continue;
      }
      rs->pool.Admit(std::move(c));
      ++stats_->merges;
      rs->any_growth = true;
    }
  }
  ApplyFolds(rs, std::move(folds));
  if (Cancelled()) rs->truncated = true;
}

void GrowthEngine::ApplyFolds(RoundState* rs,
                              std::vector<PendingFold> folds) const {
  // Nothing between a dedup hit and this call reads the target's
  // embeddings or support, and a target's folds touch only that target.
  // So each target can take its folds here, in the order they were found,
  // independently of every other target, through one image table built
  // once, then recompute its support once (a support depends only on the
  // final embedding list). No token: every
  // target must leave folded and with a fresh support even after a
  // deadline trips.
  std::stable_sort(folds.begin(), folds.end(),
                   [](const PendingFold& x, const PendingFold& y) {
                     return x.target < y.target;
                   });
  std::vector<size_t> starts;  // first fold of each target, then the end
  for (size_t f = 0; f < folds.size(); ++f) {
    if (f == 0 || folds[f].target != folds[f - 1].target) starts.push_back(f);
  }
  starts.push_back(folds.size());
  auto apply = [this, rs, &folds, &starts](int64_t begin, int64_t end) {
    for (int64_t t = begin; t < end; ++t) {
      const size_t first = starts[static_cast<size_t>(t)];
      const size_t last = starts[static_cast<size_t>(t) + 1];
      GrowthPattern& target = rs->pool.patterns[folds[first].target];
      {
        OccurrenceFolder folder(&target.embeddings);
        for (size_t f = first; f < last; ++f) {
          folder.Fold(folds[f].embeddings, folds[f].iso,
                      query_->max_embeddings_per_pattern);
          folds[f] = {};  // freed here, on the pool
        }
      }
      target.support = Support(target);
    }
  };
  pool_.ParallelForChunks(static_cast<int64_t>(starts.size()) - 1,
                          /*grain=*/1, apply);
}

GrowRoundResult GrowthEngine::GrowRound(std::vector<GrowthPattern> input,
                                        MergeRegistry& previous) {
  const int64_t n = static_cast<int64_t>(input.size());
  for (GrowthPattern& gp : input) {
    gp.cursor = 0;
    gp.next_boundary.clear();
  }

  // ---- Parallel phase: expand each input's lineage into its own slot.
  // A lineage's output depends only on its input and the shared read-only
  // graph/index/config, never on scheduling.
  std::vector<Lineage> lineages(static_cast<size_t>(n));
  // Split the round's pattern budget across lineages. The floor lets a
  // crowded round still grow each lineage a little, which means the
  // transient worst case is floor * n patterns rather than exactly
  // max_patterns_per_round (the coordinator's pass 2 re-imposes the
  // global budget on what survives). The split depends only on the input
  // count, so it is identical at any thread count.
  constexpr int64_t kLineageCapFloor = 16;
  const int64_t lineage_cap = std::max<int64_t>(
      std::min<int64_t>(query_->max_patterns_per_round, kLineageCapFloor),
      n > 0 ? query_->max_patterns_per_round / n
            : query_->max_patterns_per_round);
  auto expand = [this, &input, &lineages, lineage_cap](int64_t begin,
                                                       int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      ExpandLineage(std::move(input[static_cast<size_t>(i)]),
                    &lineages[static_cast<size_t>(i)], lineage_cap);
    }
  };
  // Grain 1: lineage costs are heavily skewed.
  pool_.ParallelForChunks(n, /*grain=*/1, expand, &token_);
  // Cancellation may skip whole lineages; re-admit their untouched inputs
  // so no in-flight pattern is lost mid-budget.
  for (int64_t i = 0; i < n; ++i) {
    Lineage& ls = lineages[static_cast<size_t>(i)];
    if (ls.pool.size() == 0) {
      ls.pool.Admit(std::move(input[static_cast<size_t>(i)]));
      ls.truncated = true;
    }
  }

  // ---- Serial coordinator: everything below runs in input order and is
  // therefore identical at any thread count.
  RoundState rs;
  // Lineage i's pool entry c maps to round pool index
  // global_of[first_of[i] + c] (-1 = dropped at the round budget).
  std::vector<int64_t> first_of(static_cast<size_t>(n) + 1, 0);
  for (int64_t i = 0; i < n; ++i) {
    Lineage& ls = lineages[static_cast<size_t>(i)];
    stats_->Add(ls.stats);
    rs.any_growth |= ls.any_growth;
    rs.truncated |= ls.truncated;
    first_of[static_cast<size_t>(i) + 1] =
        first_of[static_cast<size_t>(i)] + ls.pool.size();
  }
  std::vector<int64_t> global_of(static_cast<size_t>(first_of.back()), -1);
  rs.pool.patterns.reserve(static_cast<size_t>(
      std::min<int64_t>(first_of.back(),
                        std::max(n, query_->max_patterns_per_round))));

  // Pass 1: admit every lineage's input (pool[0]) unconditionally, as the
  // serial algorithm admits all round inputs before extending.
  for (int64_t i = 0; i < n; ++i) {
    PatternPool& lp = lineages[static_cast<size_t>(i)].pool;
    const int64_t idx = rs.pool.Admit(std::move(lp.patterns[0]));
    rs.pool.dead[idx] = lp.dead[0];
    global_of[first_of[static_cast<size_t>(i)]] = idx;
  }

  // Pass 2: fold lineage extensions across lineages. A child duplicating an
  // already-admitted pattern contributes its embeddings to it (the serial
  // duplicate-fold semantics); otherwise it is admitted with a fresh id.
  // The folds themselves are deferred to ApplyFolds, after the loop.
  std::vector<PendingFold> folds;
  for (int64_t i = 0; i < n; ++i) {
    PatternPool& lp = lineages[static_cast<size_t>(i)].pool;
    int64_t* lineage_global = &global_of[first_of[static_cast<size_t>(i)]];
    for (int64_t c = 1; c < lp.size(); ++c) {
      GrowthPattern& child = lp.patterns[c];
      std::vector<VertexId> iso;
      const int64_t dup =
          rs.pool.FindDuplicate(child, /*first_idx=*/0, &iso, &stats_->iso);
      if (dup >= 0) {
        rs.pool.patterns[dup].merged_ever |= child.merged_ever;
        // A non-closed verdict from any lineage applies to the shared
        // pattern (Algorithm 2's closedness drop must survive the fold).
        rs.pool.dead[dup] = rs.pool.dead[dup] || lp.dead[c];
        lineage_global[c] = dup;
        folds.push_back({dup, std::move(child.embeddings), std::move(iso)});
        continue;
      }
      if (rs.pool.size() >= query_->max_patterns_per_round) {
        // Global budget exhausted: this lineage's remaining children are
        // (transitive) extensions of what was just dropped, so skip them
        // wholesale; one cap hit per lineage keeps the counter readable.
        rs.truncated = true;
        ++stats_->pattern_cap_hits;
        break;
      }
      child.id = next_id_++;
      const int64_t idx = rs.pool.Admit(std::move(child));
      rs.pool.dead[idx] = lp.dead[c];
      lineage_global[c] = idx;
    }
  }
  // Must precede RunMerges/output, which read embeddings and supports.
  ApplyFolds(&rs, std::move(folds));

  // Registry remap: lineage-local pool indices -> global pattern ids, in
  // lineage order (RunMerges sorts the result).
  size_t registered = 0;
  for (const Lineage& ls : lineages) registered += ls.registry.size();
  rs.registry.reserve(registered);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t* lineage_global =
        &global_of[first_of[static_cast<size_t>(i)]];
    for (const auto& [key, lidx] : lineages[static_cast<size_t>(i)].registry) {
      const int64_t g = lineage_global[lidx];
      if (g >= 0) rs.registry.emplace_back(key, rs.pool.patterns[g].id);
    }
  }
  // Free what pass 2 left in the lineages (children dropped at the round
  // budget, moved-from shells, registries) on the pool, not here.
  pool_.ParallelForChunks(n, /*grain=*/64, [&lineages](int64_t begin,
                                                       int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      lineages[static_cast<size_t>(i)] = Lineage();
    }
  });

  RunMerges(&rs, previous);

  // Output: live patterns in pool order, each with its next boundary as
  // the new boundary; dead ones are freed. Every index is independent of
  // the others, so this fans out too.
  std::vector<int64_t> out_of(static_cast<size_t>(rs.pool.size()), -1);
  int64_t live = 0;
  for (int64_t idx = 0; idx < rs.pool.size(); ++idx) {
    if (!rs.pool.dead[idx]) out_of[static_cast<size_t>(idx)] = live++;
  }
  GrowRoundResult out;
  out.any_growth = rs.any_growth;
  out.truncated = rs.truncated;
  out.patterns.resize(static_cast<size_t>(live));
  pool_.ParallelForChunks(
      rs.pool.size(), /*grain=*/64,
      [&rs, &out, &out_of](int64_t begin, int64_t end) {
        for (int64_t idx = begin; idx < end; ++idx) {
          GrowthPattern gp = std::move(rs.pool.patterns[idx]);
          const int64_t at = out_of[static_cast<size_t>(idx)];
          if (at < 0) continue;  // dead: freed with `gp`
          SortUnique(&gp.next_boundary);
          gp.boundary = std::move(gp.next_boundary);
          gp.next_boundary = {};
          gp.cursor = 0;
          gp.exhausted = gp.boundary.empty();
          out.patterns[static_cast<size_t>(at)] = std::move(gp);
        }
      });
  previous = std::move(rs.registry);
  return out;
}

}  // namespace spidermine
