#include "spider/star_miner.h"

#include <algorithm>
#include <map>
#include <vector>

namespace spidermine {

namespace {

using LeafKey = SpiderLeafKey;

/// Per-vertex neighbor leaf-key counts, sorted by key, for O(log d) lookup.
/// Rows are independent, so construction fans out over the pool.
struct NeighborLeafCounts {
  std::vector<std::vector<std::pair<LeafKey, int32_t>>> counts;

  NeighborLeafCounts(const LabeledGraph& graph, ThreadPool& pool,
                     const CancellationToken* token) {
    const int64_t n = graph.NumVertices();
    counts.resize(static_cast<size_t>(n));
    auto fill_range = [this, &graph](int64_t begin, int64_t end) {
      std::map<LeafKey, int32_t> local;
      for (int64_t v = begin; v < end; ++v) {
        local.clear();
        for (VertexId u : graph.Neighbors(static_cast<VertexId>(v))) {
          ++local[LeafKey{graph.EdgeLabel(static_cast<VertexId>(v), u),
                          graph.Label(u)}];
        }
        counts[v].assign(local.begin(), local.end());
      }
    };
    pool.ParallelForChunks(n, /*grain=*/-1, fill_range, token);
  }

  int32_t Count(VertexId v, LeafKey key) const {
    const auto& row = counts[v];
    auto it = std::lower_bound(
        row.begin(), row.end(),
        std::make_pair(key, INT32_MIN));
    if (it != row.end() && it->first == key) return it->second;
    return 0;
  }
};

/// Automatic vertex-range grain for the root scans: large enough to
/// amortize dispatch, small enough that a multi-million-vertex hub label
/// splits across many workers.
constexpr int64_t kAutoScanGrain = 65536;

/// One root-scan cell: a contiguous vertex range of one head label. Its
/// output is a partial candidate-key histogram; per-label folds are integer
/// sums in range order, so the merged counts are identical at any grain.
struct ScanShard {
  LabelId label = 0;
  int64_t begin = 0;  // range into VerticesWithLabel(label)
  int64_t end = 0;
  std::map<LeafKey, int64_t> counts;  // key -> #anchors carrying the key
};

/// One enumeration shard: the subtree of all stars of `label` whose first
/// (smallest) leaf key is `first_key`. Subtrees are independent; their
/// outputs concatenate in (label, first key) order.
struct EnumShard {
  LabelId label = 0;
  LeafKey first_key{0, 0};
  // Counting-pass outputs (also filled by the emission pass when no budget
  // is set and the counting pass is skipped).
  int64_t count = 0;       ///< spiders in the subtree (capped at the budget)
  bool keeps_all = false;  ///< the {first_key} star keeps every label anchor
  int64_t attempts = 0;
  bool limit_hit = false;
  bool cancelled = false;
  // Budget-fold output: exact admitted prefix length.
  int64_t admitted = 0;
  // Emission-pass output.
  SpiderStore store;
};

/// Shared DFS of one subtree, in counting (`out == nullptr`) or emission
/// mode. Both modes walk the identical tree in the identical order, so a
/// counting pass followed by a prefix-limited emission pass reproduces the
/// exact global enumeration prefix.
struct SubtreeWalker {
  const StarMinerConfig* config;
  const NeighborLeafCounts* nbr_counts;
  const CancellationToken* token;
  LabelId label;
  int64_t limit;    // max spiders to produce
  SpiderStore* out; // nullptr: count only

  int64_t produced = 0;
  int64_t attempts = 0;
  bool stopped = false;
  bool limit_hit = false;
  bool cancelled = false;

  /// Produces one spider (appends in emission mode); false = stop walking.
  bool Produce(const std::vector<LeafKey>& leaves,
               const std::vector<VertexId>& anchors) {
    if (out != nullptr) out->Append(label, leaves, anchors, /*closed=*/true);
    ++produced;
    if (produced >= limit) {
      limit_hit = true;
      stopped = true;
      return false;
    }
    return true;
  }

  /// Extends the star (label, leaves) by one more leaf with key >= the last
  /// leaf key (canonical non-decreasing enumeration order). \p parent_idx
  /// is the subtree-local id of the produced parent; a child with the same
  /// anchor count marks it non-closed.
  void Extend(std::vector<LeafKey>* leaves,
              const std::vector<VertexId>& anchors,
              std::map<LeafKey, int32_t>* multiplicity, int64_t parent_idx) {
    if (stopped) return;
    if (token != nullptr && token->IsCancelled()) {
      cancelled = true;
      stopped = true;
      return;
    }
    if (static_cast<int32_t>(leaves->size()) >= config->max_leaves) return;
    const LeafKey min_next = leaves->back();

    // Gather candidate keys: keys >= min_next for which enough anchors
    // have one more matching neighbor than the star already uses.
    std::map<LeafKey, int64_t> viable_anchor_count;
    for (VertexId v : anchors) {
      for (const auto& [key, count] : nbr_counts->counts[v]) {
        if (key < min_next) continue;
        auto it = multiplicity->find(key);
        int32_t needed = (it == multiplicity->end() ? 0 : it->second) + 1;
        if (count >= needed) ++viable_anchor_count[key];
      }
    }
    for (const auto& [key, anchor_count] : viable_anchor_count) {
      if (stopped) return;
      ++attempts;
      if (anchor_count < config->min_support) continue;
      // Materialize the surviving anchor list.
      std::vector<VertexId> next_anchors;
      next_anchors.reserve(static_cast<size_t>(anchor_count));
      int32_t needed = (*multiplicity)[key] + 1;
      for (VertexId v : anchors) {
        if (nbr_counts->Count(v, key) >= needed) next_anchors.push_back(v);
      }
      if (parent_idx >= 0 && next_anchors.size() == anchors.size() &&
          out != nullptr) {
        out->set_closed(parent_idx, false);
      }
      leaves->push_back(key);
      (*multiplicity)[key] = needed;
      const int64_t child_idx = produced;
      if (!Produce(*leaves, next_anchors)) return;
      Extend(leaves, next_anchors, multiplicity, child_idx);
      (*multiplicity)[key] = needed - 1;
      if ((*multiplicity)[key] == 0) multiplicity->erase(key);
      leaves->pop_back();
    }
  }
};

/// Runs one enumeration shard. In counting mode fills count/keeps_all; in
/// emission mode fills the shard's local store with its admitted prefix.
void RunSubtree(const LabeledGraph& graph, const StarMinerConfig& config,
                const NeighborLeafCounts& nbr_counts,
                const CancellationToken* token, EnumShard* shard,
                int64_t limit, bool emit) {
  SubtreeWalker walker{&config, &nbr_counts, token, shard->label, limit,
                       emit ? &shard->store : nullptr};
  if (token != nullptr && token->IsCancelled()) {
    shard->cancelled = true;
    return;
  }
  auto label_vertices = graph.VerticesWithLabel(shard->label);
  std::vector<VertexId> anchors;
  for (VertexId v : label_vertices) {
    if (nbr_counts.Count(v, shard->first_key) >= 1) anchors.push_back(v);
  }
  shard->keeps_all = anchors.size() == label_vertices.size();

  std::vector<LeafKey> leaves{shard->first_key};
  std::map<LeafKey, int32_t> multiplicity{{shard->first_key, 1}};
  if (walker.Produce(leaves, anchors)) {
    walker.Extend(&leaves, anchors, &multiplicity, /*parent_idx=*/0);
  }
  if (!emit) shard->count = walker.produced;
  shard->attempts = walker.attempts;
  shard->limit_hit |= walker.limit_hit;
  shard->cancelled |= walker.cancelled;
}

}  // namespace

Result<StarMineResult> MineStarSpiders(const LabeledGraph& graph,
                                       const StarMinerConfig& config,
                                       ThreadPool& pool,
                                       const CancellationToken* token) {
  if (config.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (config.max_leaves < 0) {
    return Status::InvalidArgument("max_leaves must be >= 0");
  }
  NeighborLeafCounts nbr_counts(graph, pool, token);

  StarMineResult result;
  const int64_t grain =
      config.shard_grain > 0 ? config.shard_grain : kAutoScanGrain;

  // ---- Frequent head labels, in label order.
  std::vector<LabelId> freq_labels;
  for (LabelId label = 0; label < graph.NumLabels(); ++label) {
    if (graph.LabelCount(label) >= config.min_support) {
      freq_labels.push_back(label);
    }
  }

  // ---- Root scans: label × vertex-range cells, fanned out over the pool.
  // Each cell histograms the leaf keys present on its slice of the label's
  // vertex list; the per-label fold below sums cells in range order.
  std::vector<ScanShard> scans;
  for (LabelId label : freq_labels) {
    const int64_t n = graph.LabelCount(label);
    for (int64_t begin = 0; begin < n; begin += grain) {
      ScanShard cell;
      cell.label = label;
      cell.begin = begin;
      cell.end = std::min(n, begin + grain);
      scans.push_back(std::move(cell));
    }
  }
  result.num_scan_shards = static_cast<int64_t>(scans.size());
  auto run_scan = [&graph, &nbr_counts, &scans](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      ScanShard& cell = scans[static_cast<size_t>(i)];
      auto vertices = graph.VerticesWithLabel(cell.label);
      for (int64_t j = cell.begin; j < cell.end; ++j) {
        for (const auto& [key, count] : nbr_counts.counts[vertices[j]]) {
          (void)count;
          ++cell.counts[key];
        }
      }
    }
  };
  pool.ParallelForChunks(static_cast<int64_t>(scans.size()), /*grain=*/1,
                         run_scan, token);

  // ---- Per-label fold (serial, label order): merged candidate-key counts
  // define the frequent first keys, each rooting one enumeration shard.
  std::vector<EnumShard> enum_shards;
  struct LabelPlan {
    LabelId label;
    size_t first_shard;
    size_t num_shards;
  };
  std::vector<LabelPlan> plans;
  {
    size_t scan_idx = 0;
    for (LabelId label : freq_labels) {
      std::map<LeafKey, int64_t> merged;
      while (scan_idx < scans.size() && scans[scan_idx].label == label) {
        for (const auto& [key, count] : scans[scan_idx].counts) {
          merged[key] += count;
        }
        ++scan_idx;
      }
      // Every candidate key is one root-level extension attempt, frequent
      // or not (the serial level-wise miner counted them the same way).
      result.extension_attempts += static_cast<int64_t>(merged.size());
      LabelPlan plan{label, enum_shards.size(), 0};
      for (const auto& [key, count] : merged) {
        if (count < config.min_support) continue;
        EnumShard shard;
        shard.label = label;
        shard.first_key = key;
        enum_shards.push_back(std::move(shard));
        ++plan.num_shards;
      }
      plans.push_back(plan);
    }
  }
  result.num_enum_shards = static_cast<int64_t>(enum_shards.size());

  const bool budgeted = config.max_spiders > 0;
  auto run_shards = [&](bool emit) {
    auto body = [&graph, &config, &nbr_counts, token, &enum_shards, budgeted,
                 emit](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        EnumShard& shard = enum_shards[static_cast<size_t>(i)];
        // Counting caps at budget + 1: one past the budget distinguishes "the
        // subtree holds exactly the budget" (not truncated) from "more spiders
        // exist beyond it" (truncated) while still bounding per-shard work.
        const int64_t limit =
            emit ? shard.admitted
                 : (budgeted && config.max_spiders < INT64_MAX
                        ? config.max_spiders + 1
                        : INT64_MAX);
        if (emit && limit <= 0) continue;
        const int64_t counted_attempts = shard.attempts;
        RunSubtree(graph, config, nbr_counts, token, &shard, limit, emit);
        // The emission pass stops at the admitted prefix; the counting pass
        // walked the full subtree (up to the cap), so its attempt count is
        // the one comparable with an unbudgeted run over the same set.
        if (emit && budgeted) shard.attempts = counted_attempts;
      }
    };
    pool.ParallelForChunks(static_cast<int64_t>(enum_shards.size()),
                           /*grain=*/1, body, token);
  };

  // ---- Deterministic global budget. With a budget, shards first COUNT
  // (O(1) memory each, capped just past the budget), then a serial fold
  // walks the canonical (label root, then subtrees in key order) sequence
  // assigning each shard its exact admitted prefix; only those are emitted.
  // Transient store memory is therefore O(max_spiders) regardless of the
  // label count. Without a budget, a single emission pass admits all.
  std::vector<int64_t> root_admitted(plans.size(), 0);
  bool budget_truncated = false;
  if (budgeted) {
    run_shards(/*emit=*/false);
    int64_t remaining = config.max_spiders;
    int64_t full_total = 0;
    for (size_t p = 0; p < plans.size(); ++p) {
      ++full_total;
      if (remaining > 0) {
        root_admitted[p] = 1;
        --remaining;
      }
      for (size_t s = 0; s < plans[p].num_shards; ++s) {
        EnumShard& shard = enum_shards[plans[p].first_shard + s];
        full_total += shard.count;
        shard.admitted = std::min(shard.count, remaining);
        remaining -= shard.admitted;
      }
    }
    // Counting caps at budget + 1 per shard, so full_total exceeds the
    // budget iff the true enumeration does: truncation needs no per-shard
    // limit_hit flag (which also trips on an exactly-budget-sized subtree).
    budget_truncated = full_total > config.max_spiders;
    run_shards(/*emit=*/true);
  } else {
    for (auto& shard : enum_shards) shard.admitted = INT64_MAX;
    std::fill(root_admitted.begin(), root_admitted.end(), 1);
    run_shards(/*emit=*/true);
  }

  // ---- Final assembly: concatenate admitted prefixes in canonical
  // (label, first key, DFS) order — the serial enumeration order.
  {
    int64_t total_spiders = 0;
    int64_t total_leaves = 0;
    int64_t total_anchors = 0;
    for (size_t p = 0; p < plans.size(); ++p) {
      if (root_admitted[p] > 0) {
        ++total_spiders;
        total_anchors += graph.LabelCount(plans[p].label);
      }
    }
    for (const EnumShard& shard : enum_shards) {
      total_spiders += shard.store.size();
      total_anchors += shard.store.TotalAnchors();
      for (int32_t id = 0; id < shard.store.size(); ++id) {
        total_leaves += static_cast<int64_t>(shard.store.leaves(id).size());
      }
    }
    result.store.Reserve(total_spiders, total_leaves, total_anchors);
  }
  for (size_t p = 0; p < plans.size(); ++p) {
    const LabelPlan& plan = plans[p];
    if (root_admitted[p] > 0) {
      // The 0-leaf root star is closed iff no single-leaf extension keeps
      // every label vertex as an anchor. keeps_all is computed by whichever
      // pass ran, over the full frequent set, so the flag is independent of
      // budget admission.
      bool root_closed = true;
      for (size_t s = 0; s < plan.num_shards; ++s) {
        if (enum_shards[plan.first_shard + s].keeps_all) root_closed = false;
      }
      result.store.Append(plan.label, {}, graph.VerticesWithLabel(plan.label),
                          root_closed);
    }
    for (size_t s = 0; s < plan.num_shards; ++s) {
      const EnumShard& shard = enum_shards[plan.first_shard + s];
      result.store.AppendPrefix(shard.store, shard.store.size());
    }
  }

  for (const EnumShard& shard : enum_shards) {
    result.extension_attempts += shard.attempts;
    result.truncated |= shard.cancelled;
  }
  result.truncated |= budget_truncated;
  if (token != nullptr && token->IsCancelled()) result.truncated = true;
  return result;
}

}  // namespace spidermine
