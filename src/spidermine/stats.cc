#include <sstream>

#include "common/strings.h"
#include "spidermine/config.h"
#include "spidermine/session.h"

namespace spidermine {

// SessionConfig/QueryConfig methods live in config.cc; this
// file renders the stats aggregates.

std::string SessionServingStats::ToString() const {
  std::ostringstream os;
  const double mean =
      queries_run > 0 ? total_query_seconds / static_cast<double>(queries_run)
                      : 0.0;
  os << queries_run << " queries served, " << patterns_returned
     << " patterns returned, latency mean/max " << mean << "/"
     << max_query_seconds << "s, closure rooted/scanned " << closure_rooted
     << "/" << closure_scanned;
  if (homomorphism_queries > 0) {
    os << ", " << homomorphism_queries << " homomorphism";
  }
  if (txn_sampled_queries > 0) {
    os << ", " << txn_sampled_queries << " txn-sampled";
  }
  if (timed_out_queries > 0) {
    os << ", " << timed_out_queries << " hit their time budget";
  }
  if (cache_hits + cache_misses > 0) {
    os << ", cache " << cache_hits << " hits / " << cache_misses
       << " misses (" << cache_bytes / 1024 << " KiB resident, "
       << cache_evictions << " evicted)";
  }
  return os.str();
}

std::string MineStats::ToString() const {
  std::ostringstream os;
  os << "support: " << SupportMeasureName(support_measure);
  if (txn_sample_size > 0) {
    os << ", txn sample " << txn_sample_size << " per run";
  }
  os << "\n"
     << "stage I: " << num_spiders << " spiders (" << num_closed_spiders
     << " closed) in " << stage1_seconds << "s, " << stage1_steps
     << " extension attempts, " << stage1_scan_shards << " scan + "
     << stage1_enum_shards << " enum shards, store "
     << stage1_store_bytes / 1024 << " KiB\n"
     << "stage II: M=" << seed_count_m << ", " << stage2_iterations
     << " iterations, " << merges << " merges (" << merge_attempts
     << " pairs examined), " << pruned_unmerged << " unmerged pruned, "
     << stage2_seconds << "s\n"
     << "stage III: " << stage3_rounds << " rounds, " << stage3_seconds
     << "s\n"
     << "growth: " << extend_calls << " extend calls, " << growth_steps
     << " spider appends, " << nonclosed_dropped << " non-closed dropped\n"
     << "isomorphism: " << iso_checks_skipped << " skipped by iso-hash, "
     << iso_checks_run << " run\n"
     << "closure search: " << closure_rooted
     << " rooted at stored-star anchors, " << closure_scanned
     << " label scans\n"
     << "closure: " << closure_edges_added << " internal edges restored\n"
     << "caps: " << embedding_cap_hits << " embedding, " << pattern_cap_hits
     << " pattern" << (timed_out ? "; TIME BUDGET EXPIRED" : "") << "\n"
     << "total: " << total_seconds << "s\n";
  return os.str();
}

}  // namespace spidermine
