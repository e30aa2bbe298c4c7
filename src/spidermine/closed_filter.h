#pragma once

#include <vector>

#include "spidermine/session.h"

/// \file closed_filter.h
/// A closedness post-filter over a mined result set. The paper prunes
/// non-closed patterns during growth (Algorithm 2 line 22-23); this applies
/// the same notion to a final pattern list, which is useful when combining
/// patterns from multiple runs (QueryConfig::restarts) or presenting
/// results: a pattern is CLOSED if no returned super-pattern has the same
/// support. The maximality filter (no returned super-pattern at all) is
/// FilterMaximal in variants.h.

namespace spidermine {

/// Keeps only patterns with no equal-support super-pattern in the set.
/// Sub/super relations are decided by subgraph isomorphism between result
/// patterns (quadratic in the result size; intended for K-sized lists).
std::vector<MinedPattern> FilterToClosed(std::vector<MinedPattern> patterns);

}  // namespace spidermine
