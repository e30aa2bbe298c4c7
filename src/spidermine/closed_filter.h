#pragma once

#include <vector>

#include "spidermine/session.h"

/// \file closed_filter.h
/// Post-filters over a mined result set. The paper prunes non-closed
/// patterns during growth (Algorithm 2 line 22-23); these utilities apply
/// the same notions to a final pattern list, which is useful when
/// combining patterns from multiple runs (QueryConfig::restarts) or
/// presenting results: a pattern is CLOSED if no returned super-pattern
/// has the same support, and MAXIMAL if no returned super-pattern exists
/// at all (cf. SPIN/MARGIN in the paper's related work).

namespace spidermine {

/// Keeps only patterns with no equal-support super-pattern in the set.
/// Sub/super relations are decided by subgraph isomorphism between result
/// patterns (quadratic in the result size; intended for K-sized lists).
std::vector<MinedPattern> FilterToClosed(std::vector<MinedPattern> patterns);

/// Keeps only patterns with no super-pattern in the set at all.
std::vector<MinedPattern> FilterToMaximal(std::vector<MinedPattern> patterns);

}  // namespace spidermine
