#include "spidermine/variants.h"

#include <algorithm>
#include <sstream>

#include "pattern/vf2.h"

namespace spidermine {

std::vector<MinedPattern> FilterMaximal(std::vector<MinedPattern> patterns) {
  std::vector<MinedPattern> kept;
  kept.reserve(patterns.size());
  for (MinedPattern& candidate : patterns) {
    bool dominated = false;
    for (const MinedPattern& winner : kept) {
      // kept is size-descending (input order), so every kept pattern has at
      // least as many edges as the candidate.
      if (IsSubPattern(candidate.pattern, winner.pattern)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(std::move(candidate));
  }
  return kept;
}

std::vector<VariantGroup> GroupVariants(
    const std::vector<MinedPattern>& patterns,
    const VariantOptions& options) {
  const size_t n = patterns.size();
  // member_of_core[c] = indices i whose pattern contains pattern c with at
  // most max_extra_edges extra edges (including i == c).
  std::vector<std::vector<size_t>> member_of_core(n);
  for (size_t c = 0; c < n; ++c) {
    for (size_t i = 0; i < n; ++i) {
      if (i == c) {
        member_of_core[c].push_back(i);
        continue;
      }
      const int32_t extra =
          patterns[i].NumEdges() - patterns[c].NumEdges();
      if (extra < 0 || extra > options.max_extra_edges) continue;
      if (IsSubPattern(patterns[c].pattern, patterns[i].pattern)) {
        member_of_core[c].push_back(i);
      }
    }
  }

  std::vector<bool> assigned(n, false);
  std::vector<VariantGroup> groups;
  for (;;) {
    // Pick the core covering the most unassigned patterns.
    size_t best_core = n;
    size_t best_cover = 0;
    for (size_t c = 0; c < n; ++c) {
      if (assigned[c]) continue;
      size_t cover = 0;
      for (size_t i : member_of_core[c]) {
        if (!assigned[i]) ++cover;
      }
      if (cover > best_cover) {
        best_cover = cover;
        best_core = c;
      }
    }
    if (best_core == n) break;
    VariantGroup group;
    group.core_index = best_core;
    for (size_t i : member_of_core[best_core]) {
      if (assigned[i]) continue;
      assigned[i] = true;
      group.total_embeddings +=
          static_cast<int64_t>(patterns[i].embeddings.size());
      if (i != best_core) group.variant_indices.push_back(i);
    }
    std::sort(group.variant_indices.begin(), group.variant_indices.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

std::string VariantGroupsToString(const std::vector<MinedPattern>& patterns,
                                  const std::vector<VariantGroup>& groups) {
  std::ostringstream os;
  for (size_t g = 0; g < groups.size(); ++g) {
    const VariantGroup& group = groups[g];
    const MinedPattern& core = patterns[group.core_index];
    os << "group " << g << ": core |V|=" << core.NumVertices()
       << " |E|=" << core.NumEdges() << " support=" << core.support
       << ", variants=" << group.variant_indices.size()
       << ", total embeddings=" << group.total_embeddings << "\n";
  }
  return os.str();
}

}  // namespace spidermine
