#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "pattern/pattern.h"

/// \file spider.h
/// The r-spider (paper Definition 4): a frequent pattern P with a head
/// vertex u such that P is r-bounded from u. Spiders are the growth unit of
/// SpiderMine: Stage I mines them all, Stage II grows seed spiders by
/// appending spiders at pattern boundaries. Stage I keeps its r = 1 spiders
/// (stars) in a SpiderStore (spider_store.h); this record is what a store
/// materializes and what the radius-r ball miner (baselines/ball_miner.h)
/// returns.

namespace spidermine {

/// A mined r-spider. By construction pattern vertex 0 is the head.
struct Spider {
  /// The spider's structure; vertex 0 is the head u.
  Pattern pattern;
  /// Spider radius r (all vertices within distance r of vertex 0).
  int32_t radius = 1;
  /// Graph vertices at which an embedding headed there exists ("s is
  /// adjacent to v" in the paper's Appendix A), sorted ascending.
  std::vector<VertexId> anchors;
  /// Support = number of distinct anchors (distinct head images). This is
  /// the head-image count, an anti-monotone measure for head-rooted growth.
  int64_t support = 0;
  /// False when some super-spider has the identical anchor set; closed
  /// spiders are the non-redundant growth units (growing with a non-closed
  /// spider is always dominated by growing with its closure).
  bool closed = true;

  /// Labels of the head's neighbors inside the spider, sorted: for stars
  /// this fully determines the spider together with the head label.
  std::vector<LabelId> LeafLabels() const;

  /// (edge label, leaf label) pairs of the head's incident edges, sorted.
  /// The growth engine keys extension on these so edge-labeled graphs
  /// (paper Sec. 3 extension) grow correctly; for unlabeled graphs every
  /// edge label is 0 and this degenerates to LeafLabels().
  std::vector<std::pair<EdgeLabelId, LabelId>> LeafKeys() const;

  /// True iff \p vertex is an anchor (binary search).
  bool IsAnchoredAt(VertexId vertex) const;
};

}  // namespace spidermine
