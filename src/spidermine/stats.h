#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "pattern/iso_index.h"
#include "support/support_measure.h"

namespace spidermine {

/// Counters and timings of Stage I and of one query (or one MineOnce run,
/// which carries both). A session fills the Stage I counters exactly once
/// (stage1_stats()); query stats leave them 0, which is how tests assert
/// that serving R queries re-mines nothing.
struct MineStats {
  int64_t num_spiders = 0;         ///< spiders mined (or mapped)
  int64_t num_closed_spiders = 0;  ///< spiders surviving the closed filter
  int64_t stage1_steps = 0;        ///< star-mining extension attempts
  int64_t stage1_scan_shards = 0;  ///< label x vertex-range scan shards
  int64_t stage1_enum_shards = 0;  ///< label x first-leaf-key subtree shards
  int64_t stage1_store_bytes = 0;  ///< SpiderStore footprint (or mapped bytes)
  double stage1_seconds = 0.0;     ///< mining (or artifact load) wall time
  int64_t seed_count_m = 0;        ///< M actually used
  int64_t stage2_iterations = 0;
  int64_t merges = 0;              ///< merged patterns created
  int64_t merge_attempts = 0;      ///< pattern pairs examined
  int64_t pruned_unmerged = 0;     ///< patterns dropped at end of Stage II
  double stage2_seconds = 0.0;
  int64_t stage3_rounds = 0;
  double stage3_seconds = 0.0;
  int64_t extend_calls = 0;        ///< SpiderExtend invocations
  int64_t growth_steps = 0;        ///< successful spider appends
  int64_t nonclosed_dropped = 0;   ///< patterns dropped by closedness rule
  IsoChecks iso;                   ///< every IsoIndex lookup counts here
  int64_t closure_rooted = 0;   ///< E[P] searches from stored-star anchors
  int64_t closure_scanned = 0;  ///< E[P] searches scanning the start label
  int64_t closure_edges_added = 0;  ///< internal edges restored post-growth
  int64_t embedding_cap_hits = 0;
  int64_t pattern_cap_hits = 0;
  double total_seconds = 0.0;

  // What the query was, not counters: Add leaves them as they are.
  int64_t txn_sample_size = 0;  ///< per-run transaction sample (0 = all)
  SupportMeasureKind support_measure = SupportMeasureKind::kGreedyMisVertex;
  bool timed_out = false;

  /// The counter list, the one place a counter is named: calls
  /// fn(name, unit, counter...) once per counter, where name is its JSON
  /// key, unit is "count", "bytes" or "s", and counter... is that counter
  /// (an int64_t or double lvalue) of each of \p stats in turn.
  template <typename Fn, typename... Stats>
  static void ForEachCounter(Fn&& fn, Stats&... stats);

  /// Adds every counter of \p other into this one.
  void Add(const MineStats& other);
  /// One JSON object naming every counter once, in list order.
  std::string ToJson() const;
  /// The `stage I:` line of the --stats text (all `stage1 --stats` prints).
  std::string StageOneLine() const;
  /// The --stats text: the `support:` line, \p stage1's `stage I:` line
  /// (`query` passes its session's stage1_stats()), then this one's query
  /// lines through `total:`.
  std::string ToString(const MineStats& stage1) const;
  std::string ToString() const { return ToString(*this); }
};

template <typename Fn, typename... Stats>
void MineStats::ForEachCounter(Fn&& fn, Stats&... s) {
  fn("num_spiders", "count", s.num_spiders...);
  fn("num_closed_spiders", "count", s.num_closed_spiders...);
  fn("stage1_steps", "count", s.stage1_steps...);
  fn("stage1_scan_shards", "count", s.stage1_scan_shards...);
  fn("stage1_enum_shards", "count", s.stage1_enum_shards...);
  fn("stage1_store_bytes", "bytes", s.stage1_store_bytes...);
  fn("stage1_seconds", "s", s.stage1_seconds...);
  fn("seed_count_m", "count", s.seed_count_m...);
  fn("stage2_iterations", "count", s.stage2_iterations...);
  fn("merges", "count", s.merges...);
  fn("merge_attempts", "count", s.merge_attempts...);
  fn("pruned_unmerged", "count", s.pruned_unmerged...);
  fn("stage2_seconds", "s", s.stage2_seconds...);
  fn("stage3_rounds", "count", s.stage3_rounds...);
  fn("stage3_seconds", "s", s.stage3_seconds...);
  fn("extend_calls", "count", s.extend_calls...);
  fn("growth_steps", "count", s.growth_steps...);
  fn("nonclosed_dropped", "count", s.nonclosed_dropped...);
  fn("iso_checks_skipped", "count", s.iso.skipped...);
  fn("iso_checks_run", "count", s.iso.run...);
  fn("closure_rooted", "count", s.closure_rooted...);
  fn("closure_scanned", "count", s.closure_scanned...);
  fn("closure_edges_added", "count", s.closure_edges_added...);
  fn("embedding_cap_hits", "count", s.embedding_cap_hits...);
  fn("pattern_cap_hits", "count", s.pattern_cap_hits...);
  fn("total_seconds", "s", s.total_seconds...);
}

}  // namespace spidermine
