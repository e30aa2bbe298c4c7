#include "spidermine/closed_filter.h"

#include <algorithm>

#include "pattern/vf2.h"

namespace spidermine {

std::vector<MinedPattern> FilterToClosed(std::vector<MinedPattern> patterns) {
  // Drop patterns[i] when some strictly larger patterns[j] with at least
  // its support contains it.
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
      if (big.support < small.support) continue;
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

}  // namespace spidermine
