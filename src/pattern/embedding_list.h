#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/labeled_graph.h"
#include "pattern/embedding.h"
#include "spider/spider_store.h"

/// \file embedding_list.h
/// The incremental embedding-list engine: carries each in-flight lineage's
/// COMPLETE embedding set E[P] across growth rounds, so post-growth closure
/// reuses the list instead of re-discovering E[P] with a VF2 search per
/// candidate (the Pangolin / GraMi idea of level-extended embedding lists,
/// adapted to SpiderMine's spider-step growth).
///
/// The carried list is exact, not a sample: a star seed's list enumerates
/// every arrangement of leaves over every store anchor, a spider extension
/// extends every base embedding at the extension site, and a merge joins the
/// two parent lists on their overlap columns. Each operation therefore
/// preserves the invariant "list == E[P], bit for bit what VF2 would
/// enumerate" — which is what lets the closure phase substitute the list for
/// `FindEmbeddings` without changing a single output byte (both sides pass
/// through CanonicalizeEmbeddingOrder first, so even dedup representatives
/// agree).
///
/// Budget and overflow: every operation takes a budget (the query's
/// `embedding_list_budget`, pre-clamped by the caller to
/// `max_embeddings_per_pattern` so a complete list is never larger than what
/// VF2 was allowed to return). A list that would exceed the budget is
/// returned as `saturated` with its contents dropped — saturation is sticky
/// across extensions and joins, and a saturated (or absent) list sends the
/// consumer to the certified VF2 fallback. Results are byte-identical at
/// any budget; the budget only trades memory for closure-phase speed.
///
/// Determinism: every builder is serial and enumerates in a fixed order,
/// stopping as soon as the list exceeds its budget, so an unsaturated result
/// is the exact full enumeration and the saturated verdict depends only on
/// the true list size. Growth runs the builders on pool workers (seeds,
/// extensions) and inline in the CheckMerge fold (joins); the lists are
/// bounded by the budget, so fanning one out would cost more in dispatch
/// than it saves.

namespace spidermine {

/// A complete-or-saturated embedding set. Immutable once published via
/// EmbeddingListRef; shared_ptr sharing makes carrying a list through
/// collectors and result folds O(1).
struct EmbeddingList {
  /// E[P] in builder order; empty when saturated.
  std::vector<Embedding> embeddings;
  /// True when the list overflowed its budget (or a cancellation cut the
  /// build short): contents are dropped and every consumer must fall back
  /// to VF2. Sticky across extensions and joins.
  bool saturated = false;
};

using EmbeddingListRef = std::shared_ptr<const EmbeddingList>;

/// The canonical saturated list (empty contents, saturated = true).
EmbeddingListRef SaturatedEmbeddingList();

/// Groups a sorted leaf-key multiset into (key, count) runs.
std::vector<std::pair<SpiderLeafKey, int32_t>> GroupLeafKeys(
    std::span<const SpiderLeafKey> keys);

/// Enumerates every way to choose, for each (key, count) group, `count`
/// distinct vertices from that group's availability list as an ascending
/// COMBINATION — automorphic reassignments of equal-key leaves are produced
/// once. This is the occurrence-list semantics growth has always used
/// (GrowthPattern::embeddings); it under-counts E[P] on purpose.
/// \p emit receives the concatenated choice and returns false to stop;
/// the function returns false when stopped early.
bool EnumerateLeafCombinations(
    const std::vector<std::pair<SpiderLeafKey, int32_t>>& groups,
    const std::vector<std::vector<VertexId>>& avail,
    std::vector<VertexId>* chosen, size_t group_idx,
    const std::function<bool(const std::vector<VertexId>&)>& emit);

/// Enumerates every ordered injective ARRANGEMENT instead: equal-key leaves
/// are distinct pattern vertices, so E[P] contains every permutation of
/// their images as a distinct embedding — exactly what VF2 enumerates. The
/// complete-list builders below use this variant; using combinations there
/// would silently drop embeddings whenever a pattern has equal-key sibling
/// leaves. Emission order is deterministic: lexicographic in (group,
/// position, availability index).
bool EnumerateLeafArrangements(
    const std::vector<std::pair<SpiderLeafKey, int32_t>>& groups,
    const std::vector<std::vector<VertexId>>& avail,
    std::vector<VertexId>* chosen, size_t group_idx,
    const std::function<bool(const std::vector<VertexId>&)>& emit);

/// Enumerates every ordered ASSIGNMENT — tuples WITH repetition within a
/// group — for the homomorphic builders: distinct equal-key leaves may map
/// onto one shared neighbor, so each position independently tries every
/// availability-list entry (|avail|^count tuples per group). Cross-group
/// coincidence cannot arise (a neighbor has exactly one key), and a leaf can
/// never coincide with its own center (simple graphs have no self-loops).
/// Emission order is deterministic: lexicographic in (group, position,
/// availability index).
bool EnumerateLeafAssignments(
    const std::vector<std::pair<SpiderLeafKey, int32_t>>& groups,
    const std::vector<std::vector<VertexId>>& avail,
    std::vector<VertexId>* chosen, size_t group_idx,
    const std::function<bool(const std::vector<VertexId>&)>& emit);

/// Builds the complete E[star] of spider \p spider_id: for every store
/// anchor, every arrangement of the spider's leaves over the anchor's
/// fresh neighbors, in the store's pattern numbering (vertex 0 = head,
/// then leaves in `store.leaves()` order). Returns a saturated list when
/// the budget overflows or \p budget <= 0.
///
/// \p homomorphic switches the engine to homomorphic E[P]: centers come
/// from every head-labeled vertex (the store's anchor list requires
/// per-key DISTINCT neighbor counts and would under-cover homomorphisms),
/// and leaves are assigned with repetition (EnumerateLeafAssignments).
EmbeddingListRef BuildStarEmbeddingList(const LabeledGraph& graph,
                                        const SpiderStore& store,
                                        int32_t spider_id, int64_t budget,
                                        bool homomorphic = false);

/// Extends complete list \p base of a pattern P to the complete list of
/// P + \p new_leaves attached at pattern vertex \p v (the SpiderExtend
/// step): every base embedding contributes every arrangement of the new
/// leaves over fresh neighbors of its image of v. The spider-anchor filter
/// (`store.IsAnchoredAt(spider_id, e[v])`) is applied as a non-lossy prune:
/// an image that admits an arrangement necessarily has per-key neighbor
/// counts at or above the spider's leaf multiset, i.e. is an anchor.
/// Serial (runs inside growth workers). Saturation in \p base is sticky.
///
/// \p homomorphic skips the anchor prune (unsound for homomorphisms: equal-
/// key leaves may share one neighbor, so non-anchors can host them), allows
/// new leaves to coincide with already-embedded vertices, and assigns
/// leaves with repetition.
EmbeddingListRef ExtendEmbeddingListAtVertex(
    const LabeledGraph& graph, const SpiderStore& store, int32_t spider_id,
    const EmbeddingList& base, VertexId v,
    std::span<const SpiderLeafKey> new_leaves, int64_t budget,
    bool homomorphic = false);

/// Joins the complete lists of two merge parents into the complete list of
/// their union pattern. \p map_a[pu] / \p map_b[pv] give the union-pattern
/// vertex each parent-pattern vertex maps to (recorded from the union
/// instance that founded the candidate); together they cover all
/// \p num_union_vertices union vertices and overlap on the shared columns.
/// A union embedding is exactly a pair (ea, eb) that agrees on the overlap
/// columns and is injective across the exclusive ones, so the join hashes
/// b's list by overlap key and streams a's list through it, with the same
/// saturation contract as BuildStarEmbeddingList. No pair produces
/// duplicates (an embedding determines its parent projections uniquely).
/// Saturation in either parent is sticky.
///
/// \p homomorphic drops the cross-injectivity check: a homomorphic union
/// embedding is ANY pair agreeing on the overlap columns (exclusive images
/// may collide), so the join reduces to the keyed cross product.
EmbeddingListRef JoinEmbeddingLists(const EmbeddingList& a,
                                    const EmbeddingList& b,
                                    const std::vector<VertexId>& map_a,
                                    const std::vector<VertexId>& map_b,
                                    int32_t num_union_vertices, int64_t budget,
                                    bool homomorphic = false);

/// Level-extension step shared with the complete baseline miner: appends to
/// \p out every extension of \p base embeddings mapping a NEW pattern
/// vertex (attached to pattern vertex \p src by an edge labeled
/// \p edge_label, with vertex label \p vertex_label) onto a fresh graph
/// neighbor. Stops once \p out reaches \p max_embeddings (the caller's
/// per-pattern cap) and returns false then, true when the enumeration
/// completed.
bool ExtendEmbeddingsNewVertex(const LabeledGraph& graph,
                               const std::vector<Embedding>& base,
                               VertexId src, EdgeLabelId edge_label,
                               LabelId vertex_label, int64_t max_embeddings,
                               std::vector<Embedding>* out);

/// Internal-edge step shared with the complete baseline miner: keeps the
/// \p embeddings whose images of pattern vertices \p u and \p v are joined
/// by a graph edge labeled \p edge_label (the embeddings of the pattern
/// with that edge added; the vertex set is unchanged).
std::vector<Embedding> FilterEmbeddingsInternalEdge(
    const LabeledGraph& graph, const std::vector<Embedding>& embeddings,
    VertexId u, VertexId v, EdgeLabelId edge_label);

}  // namespace spidermine
