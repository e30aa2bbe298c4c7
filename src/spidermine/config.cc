#include "spidermine/config.h"

#include <algorithm>
#include <utility>

#include "common/fnv1a.h"
#include "common/strings.h"

namespace spidermine {

Status SessionConfig::Validate() const {
  if (min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
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
  if (txn_sample < 0) {
    return Status::InvalidArgument(
        "txn_sample must be >= 0 (0 = count all transactions)");
  }
  if (txn_sample > 0 &&
      support_measure != SupportMeasureKind::kTransaction) {
    return Status::InvalidArgument(
        "txn_sample requires the transaction support measure");
  }
  const std::pair<const char*, int64_t> caps[] = {
      {"max_embeddings_per_pattern", max_embeddings_per_pattern},
      {"max_patterns_per_round", max_patterns_per_round},
      {"max_seed_embeddings_per_anchor", max_seed_embeddings_per_anchor},
      {"max_merge_pairs_per_key", max_merge_pairs_per_key},
      {"max_union_instances", max_union_instances},
      {"stage3_max_rounds", stage3_max_rounds},
  };
  for (const auto& [name, value] : caps) {
    if (value < 1) {
      return Status::InvalidArgument(
          StrCat(name, " must be >= 1, got ", value));
    }
  }
  return Status::Ok();
}

QueryConfig QueryConfig::Resolve(int64_t session_min_support,
                                 int64_t graph_vertices) const {
  QueryConfig q = *this;
  if (q.min_support == 0) q.min_support = session_min_support;
  if (q.vmin <= 0) q.vmin = std::max<int64_t>(1, graph_vertices / 10);
  q.vmin = std::min(q.vmin, graph_vertices);
  if (q.restarts < 0) q.restarts = 1;
  return q;
}

uint64_t QueryConfig::CanonicalHash(int64_t session_min_support,
                                    int64_t graph_vertices) const {
  const QueryConfig q = Resolve(session_min_support, graph_vertices);
  // FNV-1a over the bytes of each field. Doubles hash by bit pattern (the
  // protocol parses them deterministically, so equal requests carry equal
  // bits); bools are one byte; enums go in as their underlying integer.
  Fnv1a h;
  h.MixValueBytes(q.min_support);
  h.MixValueBytes(q.k);
  h.MixValueBytes(q.epsilon);
  h.MixValueBytes(q.dmax);
  h.MixValueBytes(q.vmin);
  h.MixValueBytes(static_cast<int32_t>(q.support_measure));
  h.MixValueBytes(q.txn_sample);
  h.MixValueBytes(q.rng_seed);
  h.MixValueBytes(q.seed_count_override);
  h.MixValueBytes(q.restarts);
  h.MixValueBytes(q.max_embeddings_per_pattern);
  h.MixValueBytes(q.max_patterns_per_round);
  h.MixValueBytes(q.max_seed_embeddings_per_anchor);
  h.MixValueBytes(q.max_merge_pairs_per_key);
  h.MixValueBytes(q.max_union_instances);
  h.MixValueBytes(q.stage3_max_rounds);
  // Fixed knobs keep their bytes and positions in the key so the pinned
  // keys (fnv1a_test) hold: the result cap, closed spiders only (on), the
  // closure window and keep-unmerged (off).
  h.MixValueBytes(kMaxResults);
  h.MixValueBytes(q.time_budget_seconds);
  h.MixValueBytes(true);
  h.MixValueBytes(q.close_internal_edges);
  h.MixValueBytes(q.ClosureWindow());
  h.MixValueBytes(q.enforce_dmax_on_results);
  h.MixValueBytes(false);
  return h.hash();
}

}  // namespace spidermine
