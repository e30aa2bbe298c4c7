#include "spidermine/stats.h"

#include <iomanip>
#include <sstream>

#include "spidermine/session.h"

namespace spidermine {

std::string SessionServingStats::ToString() const {
  std::ostringstream os;
  const double mean =
      queries_run > 0
          ? query_totals.total_seconds / static_cast<double>(queries_run)
          : 0.0;
  os << queries_run << " queries served, " << patterns_returned
     << " patterns returned, latency mean/max " << mean << "/"
     << max_query_seconds << "s, closure rooted/scanned "
     << query_totals.closure_rooted << "/" << query_totals.closure_scanned;
  if (homomorphism_queries > 0) {
    os << ", " << homomorphism_queries << " homomorphism";
  }
  if (txn_sampled_queries > 0) {
    os << ", " << txn_sampled_queries << " txn-sampled";
  }
  if (timed_out_queries > 0) {
    os << ", " << timed_out_queries << " hit their time budget";
  }
  if (cache.hits + cache.misses > 0) {
    os << ", cache " << cache.hits << " hits / " << cache.misses
       << " misses (" << cache.bytes / 1024 << " KiB resident, "
       << cache.evictions << " evicted)";
  }
  return os.str();
}

void MineStats::Add(const MineStats& other) {
  ForEachCounter([](std::string_view, std::string_view, auto& sum,
                    const auto& more) { sum += more; },
                 *this, other);
}

std::string MineStats::ToJson() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6) << '{';
  const char* separator = "";
  ForEachCounter(
      [&](std::string_view name, std::string_view, const auto& value) {
        os << separator << '"' << name << "\":" << value;
        separator = ",";
      },
      *this);
  os << '}';
  return os.str();
}

std::string MineStats::StageOneLine() const {
  std::ostringstream os;
  os << "stage I: " << num_spiders << " spiders (" << num_closed_spiders
     << " closed) in " << stage1_seconds << "s, " << stage1_steps
     << " extension attempts, " << stage1_scan_shards << " scan + "
     << stage1_enum_shards << " enum shards, store "
     << stage1_store_bytes / 1024 << " KiB\n";
  return os.str();
}

std::string MineStats::ToString(const MineStats& stage1) const {
  std::ostringstream os;
  os << "support: " << SupportMeasureName(support_measure);
  if (txn_sample_size > 0) {
    os << ", txn sample " << txn_sample_size << " per run";
  }
  os << "\n"
     << stage1.StageOneLine()
     << "stage II: M=" << seed_count_m << ", " << stage2_iterations
     << " iterations, " << merges << " merges (" << merge_attempts
     << " pairs examined), " << pruned_unmerged << " unmerged pruned, "
     << stage2_seconds << "s\n"
     << "stage III: " << stage3_rounds << " rounds, " << stage3_seconds
     << "s\n"
     << "growth: " << extend_calls << " extend calls, " << growth_steps
     << " spider appends, " << nonclosed_dropped << " non-closed dropped\n"
     << "isomorphism: " << iso.skipped << " skipped by iso-hash, " << iso.run
     << " run\n"
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
