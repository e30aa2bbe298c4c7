#include "spidermine/config.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

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

namespace {

/// FNV-1a over the bytes of one value. Doubles hash by bit pattern (the
/// protocol parses them deterministically, so equal requests carry equal
/// bits); bools widen to a byte; enums to their underlying integer.
struct Fnv1a {
  uint64_t state = 0xcbf29ce484222325ULL;  // FNV offset basis

  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      state ^= p[i];
      state *= 0x100000001b3ULL;  // FNV prime
    }
  }
  template <typename T>
  void Field(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Bytes(&value, sizeof(value));
  }
};

}  // namespace

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

  Fnv1a h;
  h.Field(support);
  h.Field(k);
  h.Field(epsilon);
  h.Field(dmax);
  h.Field(effective_vmin);
  h.Field(static_cast<int32_t>(support_measure));
  h.Field(txn_sample);
  h.Field(rng_seed);
  h.Field(seed_count_override);
  h.Field(effective_restarts);
  h.Field(max_embeddings_per_pattern);
  // embedding_list_budget deliberately NOT hashed: results are
  // byte-identical at any budget (the engine's determinism contract), so
  // requests differing only there must share a cache line.
  h.Field(max_patterns_per_round);
  h.Field(max_seed_embeddings_per_anchor);
  h.Field(max_merge_pairs_per_key);
  h.Field(max_union_instances);
  h.Field(stage3_max_rounds);
  h.Field(max_results);
  h.Field(time_budget_seconds);
  h.Field(use_closed_spiders_only);
  h.Field(close_internal_edges);
  h.Field(window);
  h.Field(enforce_dmax_on_results);
  h.Field(keep_unmerged);
  return h.state;
}

}  // namespace spidermine
