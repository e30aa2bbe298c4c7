#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "pattern/embedding.h"
#include "pattern/pattern.h"

/// \file support_measure.h
/// Pattern support in the single-graph setting. Overlapping embeddings make
/// raw embedding counts non-anti-monotone, which is the core complication
/// the paper highlights (Sec. 1/2). SpiderMine adopts the overlap-aware
/// support of Fiedler & Borgelt [9]; the tractable realization used here is
/// a greedy maximum-independent-set over the embedding conflict graph
/// (vertex- or edge-sharing conflicts), alongside the minimum-image (MNI)
/// measure and plain counts. Exact harmful-overlap support is NP-hard; the
/// substitution is documented in DESIGN.md §4.

namespace spidermine {

/// Available support definitions.
enum class SupportMeasureKind {
  /// |E[P]|: raw embedding count. Not anti-monotone; diagnostics only.
  kEmbeddingCount,
  /// Minimum over pattern vertices of the number of distinct image
  /// vertices (MNI). Anti-monotone.
  kMinImage,
  /// Greedy max independent set of embeddings, conflict = shared vertex
  /// (vertex-disjoint support in the spirit of GREW [20]). Default.
  kGreedyMisVertex,
  /// Greedy MIS, conflict = shared edge (edge-disjoint support in the
  /// spirit of Vanetik et al. [31] / harmful overlap [9]).
  kGreedyMisEdge,
  /// Number of distinct transaction ids covered (graph-transaction
  /// setting; requires SupportContext::txn_of_vertex or
  /// SupportContext::txn_map).
  kTransaction,
  /// Minimum-image count over HOMOMORPHIC embeddings (label-preserving
  /// maps that need not be injective), after Dries & Nijssen. Computed
  /// exactly like kMinImage — the measure's value on a homomorphic E[P] is
  /// the homomorphism support; on an injective occurrence list (what
  /// growth carries) it is the anti-monotone growth-time bound. The
  /// session's closure phase recounts over the complete homomorphic list
  /// that a homomorphic VF2 search enumerates.
  kHomomorphism,
};

/// Per-vertex transaction payloads (Lei et al.: a transaction database
/// attached to the network's vertices), CSR-packed: vertex v carries the
/// transaction ids txn_ids[offsets[v] .. offsets[v+1]), sorted ascending.
/// An embedding covers transaction t iff EVERY image vertex carries t.
struct VertexTxnMap {
  /// num_vertices + 1 non-decreasing offsets into txn_ids.
  std::vector<int64_t> offsets;
  /// Sorted transaction ids per vertex (duplicates within a vertex are
  /// not allowed).
  std::vector<int32_t> txn_ids;
  /// Number of distinct transactions (= max id + 1).
  int32_t num_transactions = 0;

  int64_t NumVertices() const {
    return offsets.empty() ? 0 : static_cast<int64_t>(offsets.size()) - 1;
  }
  /// Sorted transaction ids carried by vertex \p v.
  std::span<const int32_t> TxnsOf(VertexId v) const {
    return std::span<const int32_t>(txn_ids).subspan(
        static_cast<size_t>(offsets[v]),
        static_cast<size_t>(offsets[v + 1] - offsets[v]));
  }
};

/// Extra inputs some measures need.
struct SupportContext {
  /// For kTransaction: transaction id of every graph vertex of the
  /// disjoint-union graph (see spidermine/txn_adapter.h). An embedding
  /// covers the transaction of its first image vertex (connected patterns
  /// never straddle transactions in the disjoint union).
  const std::vector<int32_t>* txn_of_vertex = nullptr;
  /// For kTransaction with per-vertex payloads: takes precedence over
  /// txn_of_vertex. An embedding covers a transaction iff every image
  /// vertex carries it.
  const VertexTxnMap* txn_map = nullptr;
  /// Optional sorted whitelist of transaction ids (the sampling-based
  /// top-K mode): transactions outside it are ignored by kTransaction.
  /// nullptr = count all transactions.
  const std::vector<int32_t>* txn_sample = nullptr;
};

/// Human-readable measure name (for bench output).
std::string_view SupportMeasureName(SupportMeasureKind kind);

/// Computes the support of a pattern given its embedding list.
///
/// \p pattern supplies the edge structure needed by kGreedyMisEdge; other
/// measures only read \p embeddings.
int64_t ComputeSupport(SupportMeasureKind kind, const Pattern& pattern,
                       const OccurrenceList& embeddings,
                       const SupportContext& context = {});

/// Removes duplicate embeddings that map to the identical image vertex-set
/// (automorphic re-discoveries), keeping first occurrences in order. It
/// and OccurrenceFolder run one image-fingerprint table implementation.
void DedupEmbeddingsByImage(OccurrenceList* embeddings);

/// Folds rows into an occurrence list, keeping first images: the same
/// list as appending each fold's rows and then running
/// DedupEmbeddingsByImage, but the image table of the list is built once,
/// when the folder is made, and each fold costs O(its rows).
///
/// A folder holds its thread's fold table (not the one
/// DedupEmbeddingsByImage uses) until it is destroyed: one live folder per
/// thread.
class OccurrenceFolder {
 public:
  /// Deduplicates \p list by image (a no-op on a list that already is) and
  /// indexes its rows. \p list must outlive the folder.
  explicit OccurrenceFolder(OccurrenceList* list);

  /// Appends the rows of \p rows, each renumbered as row'[u] = row[iso[u]]
  /// (iso has the list's width), dropping any whose image the list holds.
  /// The cap counts raw appends, duplicates included: with n rows in the
  /// list at this call, at most max_rows - n rows are offered. Returns how
  /// many were offered.
  int64_t Fold(const OccurrenceList& rows, std::span<const VertexId> iso,
               int64_t max_rows);

 private:
  OccurrenceList* list_;
};

}  // namespace spidermine
