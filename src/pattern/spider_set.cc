#include "pattern/spider_set.h"

#include <algorithm>
#include <string>

#include "pattern/dfs_code.h"

namespace spidermine {

namespace {

uint64_t HashString(const std::string& s) {
  // FNV-1a 64-bit.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t BallCode(const Pattern& pattern, VertexId center, int32_t r) {
  return HashString(CanonicalString(NeighborhoodSpider(pattern, center, r)));
}

}  // namespace

Pattern NeighborhoodSpider(const Pattern& pattern, VertexId center,
                           int32_t r) {
  std::vector<int32_t> dist = pattern.BfsDistances(center, r);
  std::vector<VertexId> ball;
  ball.push_back(center);
  for (VertexId v = 0; v < pattern.NumVertices(); ++v) {
    if (v != center && dist[v] >= 0) ball.push_back(v);
  }
  Pattern spider = pattern.InducedSubgraph(ball);
  // Tag the head: labels become 2*label, head gets 2*label+1, so the head
  // is distinguishable by the canonicalizer without a separate channel.
  // Edge labels carry over so edge-labeled patterns separate.
  Pattern tagged;
  for (VertexId v = 0; v < spider.NumVertices(); ++v) {
    tagged.AddVertex(spider.Label(v) * 2 + (v == 0 ? 1 : 0));
  }
  for (const auto& e : spider.LabeledEdges()) {
    tagged.AddEdge(e.u, e.v, e.label);
  }
  return tagged;
}

SpiderSetRepr SpiderSetRepr::Compute(const Pattern& pattern, int32_t r) {
  SpiderSetRepr repr;
  repr.codes_.reserve(static_cast<size_t>(pattern.NumVertices()));
  for (VertexId v = 0; v < pattern.NumVertices(); ++v) {
    repr.codes_.push_back(BallCode(pattern, v, r));
  }
  std::sort(repr.codes_.begin(), repr.codes_.end());
  // Order-independent digest over the sorted multiset.
  uint64_t acc = 0x2545f4914f6cdd1dULL;
  for (uint64_t c : repr.codes_) {
    acc ^= c + 0x9e3779b97f4a7c15ULL + (acc << 6) + (acc >> 2);
  }
  repr.combined_ = acc;
  return repr;
}

}  // namespace spidermine
