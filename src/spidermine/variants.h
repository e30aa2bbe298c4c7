#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pattern/pattern.h"
#include "spidermine/session.h"

/// \file variants.h
/// Result post-processing for presentation and analysis, modeled on how the
/// paper reads its own output:
///
/// * Maximality filtering -- the top-K list naturally contains patterns
///   nested inside larger ones; FilterMaximal keeps only patterns that are
///   not subgraphs (IsSubPattern, vf2.h) of a larger returned pattern (the
///   view SPIN/MARGIN [27, 30] produce, cited as the maximal-pattern
///   alternative in Sec. 2).
/// * Variant grouping -- Figure 23 presents each discriminative pattern as
///   a solid "main pattern present in all embeddings" plus dotted "pattern
///   variants, extra edges each appearing in some embeddings". GroupVariants
///   reconstructs that view: results are clustered around a core pattern
///   with members that extend the core by at most a few edges.

namespace spidermine {

/// Keeps only maximal patterns: a pattern is dropped iff it is a subgraph
/// of a kept pattern with at least as many edges. Order: input must be the
/// miner's size-sorted list; output preserves that order.
std::vector<MinedPattern> FilterMaximal(std::vector<MinedPattern> patterns);

/// One variant cluster: indices into the input pattern list.
struct VariantGroup {
  /// The core (Fig. 23's solid "main pattern"): contained in every member.
  size_t core_index = 0;
  /// Members extending the core (excluding the core itself), each by at
  /// most VariantOptions::max_extra_edges edges.
  std::vector<size_t> variant_indices;
  /// Total embeddings across the group (Fig. 23 reports this per cluster).
  int64_t total_embeddings = 0;
};

/// Knobs for GroupVariants.
struct VariantOptions {
  /// A pattern joins a core's group when it contains the core and has at
  /// most this many extra edges (Fig. 23's variants "only differ slightly").
  int32_t max_extra_edges = 2;
};

/// Greedily clusters \p patterns into variant groups. Every index appears
/// in exactly one group (singletons allowed). Cores are chosen to maximize
/// group size (ties: smaller index), so dominant collaboration structures
/// surface first, as in Figure 23.
std::vector<VariantGroup> GroupVariants(
    const std::vector<MinedPattern>& patterns,
    const VariantOptions& options = {});

/// Renders groups for CLI/example output: one line per group with core
/// size, variant count and total embeddings.
std::string VariantGroupsToString(const std::vector<MinedPattern>& patterns,
                                  const std::vector<VariantGroup>& groups);

}  // namespace spidermine
