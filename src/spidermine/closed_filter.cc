#include "spidermine/closed_filter.h"

#include <algorithm>

#include "pattern/vf2.h"

namespace spidermine {

namespace {

/// Shared scaffold: drop patterns[i] when some patterns[j] is a strict
/// super-pattern and `subsumes(i, j)` confirms the filter-specific
/// condition.
template <typename Subsumes>
std::vector<MinedPattern> Filter(std::vector<MinedPattern> patterns,
                                 Subsumes subsumes) {
  std::vector<bool> dropped(patterns.size(), false);
  for (size_t i = 0; i < patterns.size(); ++i) {
    for (size_t j = 0; j < patterns.size() && !dropped[i]; ++j) {
      if (i == j || dropped[j]) continue;
      const MinedPattern& small = patterns[i];
      const MinedPattern& big = patterns[j];
      if (big.NumEdges() <= small.NumEdges() &&
          big.NumVertices() <= small.NumVertices()) {
        continue;  // not strictly larger
      }
      if (!subsumes(small, big)) continue;
      if (IsSubPattern(small.pattern, big.pattern)) dropped[i] = true;
    }
  }
  std::vector<MinedPattern> kept;
  kept.reserve(patterns.size());
  for (size_t i = 0; i < patterns.size(); ++i) {
    if (!dropped[i]) kept.push_back(std::move(patterns[i]));
  }
  return kept;
}

}  // namespace

std::vector<MinedPattern> FilterToClosed(std::vector<MinedPattern> patterns) {
  return Filter(std::move(patterns),
                [](const MinedPattern& small, const MinedPattern& big) {
                  return big.support >= small.support;
                });
}

std::vector<MinedPattern> FilterToMaximal(std::vector<MinedPattern> patterns) {
  return Filter(std::move(patterns),
                [](const MinedPattern&, const MinedPattern&) { return true; });
}

}  // namespace spidermine
