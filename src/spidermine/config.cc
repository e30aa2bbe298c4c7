#include "spidermine/config.h"

#include <algorithm>

#include "common/fnv1a.h"

namespace spidermine {

Status SessionConfig::Validate() const {
  if (min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (spider_radius != 1) {
    return Status::InvalidArgument(
        "the growth engine implements spider_radius = 1 (the paper's own "
        "implementation choice); use MineBallSpiders for larger radii");
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (stage1_shard_grain < 0) {
    return Status::InvalidArgument(
        "stage1_shard_grain must be >= 0 (0 = automatic)");
  }
  return Status::Ok();
}

Status QueryConfig::Validate() const {
  if (min_support < 0) {
    return Status::InvalidArgument(
        "query min_support must be >= 0 (0 = the session's mined floor)");
  }
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  if (dmax < 1) return Status::InvalidArgument("dmax must be >= 1");
  if (epsilon <= 0.0 || epsilon >= 1.0) {
    return Status::InvalidArgument("epsilon must be in (0, 1)");
  }
  if (embedding_list_budget < 0) {
    return Status::InvalidArgument(
        "embedding_list_budget must be >= 0 (0 = VF2-only closure)");
  }
  if (txn_sample < 0) {
    return Status::InvalidArgument(
        "txn_sample must be >= 0 (0 = count all transactions)");
  }
  if (txn_sample > 0 &&
      support_measure != SupportMeasureKind::kTransaction) {
    return Status::InvalidArgument(
        "txn_sample requires the transaction support measure");
  }
  return Status::Ok();
}

uint64_t QueryConfig::CanonicalHash(int64_t session_min_support,
                                    int64_t graph_vertices) const {
  // Normalize every defaulted field exactly the way RunQuery resolves it,
  // so {"support":0} and {"support":<floor>} are the same cache line.
  const int64_t support =
      min_support == 0 ? session_min_support : min_support;
  int64_t effective_vmin =
      vmin > 0 ? vmin : std::max<int64_t>(1, graph_vertices / 10);
  effective_vmin = std::min(effective_vmin, graph_vertices);
  const int64_t window =
      closure_window > 0 ? closure_window : std::max<int64_t>(64, 8LL * k);
  const int32_t effective_restarts = restarts == 0 ? 0 : std::max(1, restarts);

  // FNV-1a over the bytes of each field. Doubles hash by bit pattern (the
  // protocol parses them deterministically, so equal requests carry equal
  // bits); bools are one byte; enums go in as their underlying integer.
  Fnv1a h;
  h.MixValueBytes(support);
  h.MixValueBytes(k);
  h.MixValueBytes(epsilon);
  h.MixValueBytes(dmax);
  h.MixValueBytes(effective_vmin);
  h.MixValueBytes(static_cast<int32_t>(support_measure));
  h.MixValueBytes(txn_sample);
  h.MixValueBytes(rng_seed);
  h.MixValueBytes(seed_count_override);
  h.MixValueBytes(effective_restarts);
  h.MixValueBytes(max_embeddings_per_pattern);
  // embedding_list_budget deliberately NOT hashed: results are
  // byte-identical at any budget (the engine's determinism contract), so
  // requests differing only there must share a cache line.
  h.MixValueBytes(max_patterns_per_round);
  h.MixValueBytes(max_seed_embeddings_per_anchor);
  h.MixValueBytes(max_merge_pairs_per_key);
  h.MixValueBytes(max_union_instances);
  h.MixValueBytes(stage3_max_rounds);
  h.MixValueBytes(max_results);
  h.MixValueBytes(time_budget_seconds);
  h.MixValueBytes(use_closed_spiders_only);
  h.MixValueBytes(close_internal_edges);
  h.MixValueBytes(window);
  h.MixValueBytes(enforce_dmax_on_results);
  h.MixValueBytes(keep_unmerged);
  return h.hash();
}

}  // namespace spidermine
