#pragma once

#include <cstdint>
#include <vector>

#include "graph/labeled_graph.h"

/// \file embedding.h
/// An embedding e_P of a pattern P in the network G: the image vertex in G
/// of each pattern vertex. The set of all embeddings is the paper's E[P].

namespace spidermine {

/// embedding[i] = image in G of pattern vertex i. Injective by construction.
using Embedding = std::vector<VertexId>;

/// The image vertex set of \p embedding, sorted ascending (for overlap
/// tests and hashing).
std::vector<VertexId> SortedImage(const Embedding& embedding);

/// True iff the two embeddings share at least one graph vertex.
/// Both arguments must be sorted images (see SortedImage). Runs once per
/// merge-candidate pair (exact-MIS overlap graphs), so it short-circuits
/// hard: an empty or range-disjoint pair answers in O(1), heavily skewed
/// sizes use a galloping (doubling) scan of the longer list, and only
/// comparable sizes pay the plain two-pointer merge.
bool ImagesIntersect(const std::vector<VertexId>& a,
                     const std::vector<VertexId>& b);

/// Sorts E[P] into canonical lexicographic order (element-wise VertexId
/// comparison). Embedding enumeration order is an implementation detail
/// (VF2's matching order, an occurrence list's extension order, a fold),
/// but downstream consumers — DedupEmbeddingsByImage keeps the FIRST
/// embedding per image, and closure scores candidate edges through those
/// representatives — are order-sensitive. Canonicalizing first makes every
/// enumeration strategy feed them identical input.
void CanonicalizeEmbeddingOrder(std::vector<Embedding>* embeddings);

/// A 64-bit order-independent fingerprint of the image set, for hashing
/// embeddings into buckets during merge detection.
uint64_t ImageFingerprint(const Embedding& embedding);

}  // namespace spidermine
