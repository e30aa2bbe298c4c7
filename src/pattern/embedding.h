#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/labeled_graph.h"

/// \file embedding.h
/// An embedding e_P of a pattern P in the network G: the image vertex in G
/// of each pattern vertex. The set of all embeddings is the paper's E[P].
/// Every E[P] in the library is an OccurrenceList: one row per embedding,
/// row[i] = image in G of pattern vertex i, all rows held in one buffer.

namespace spidermine {

/// The image vertex set of \p row, sorted ascending (for overlap tests and
/// hashing).
std::vector<VertexId> SortedImage(std::span<const VertexId> row);

/// True iff the two embeddings share at least one graph vertex.
/// Both arguments must be sorted images (see SortedImage). Runs once per
/// merge-candidate pair (exact-MIS overlap graphs), so it short-circuits
/// hard: an empty or range-disjoint pair answers in O(1), heavily skewed
/// sizes use a galloping (doubling) scan of the longer list, and only
/// comparable sizes pay the plain two-pointer merge.
bool ImagesIntersect(const std::vector<VertexId>& a,
                     const std::vector<VertexId>& b);

/// A 64-bit order-independent fingerprint of the image set, for hashing
/// embeddings into buckets during merge detection.
uint64_t ImageFingerprint(std::span<const VertexId> embedding);

/// Rows of one width (embeddings of one pattern, or their sorted images)
/// stored flat: one VertexId buffer, row i at [i * width, (i + 1) * width),
/// exposed as spans. A list costs one heap block however many rows it has.
class OccurrenceList {
 public:
  using Row = std::span<const VertexId>;

  /// Iterates rows in order, for range-for (each dereference is a Row).
  class Iterator {
   public:
    Iterator(const OccurrenceList* list, size_t row)
        : list_(list), row_(row) {}
    Row operator*() const { return (*list_)[row_]; }
    Iterator& operator++() {
      ++row_;
      return *this;
    }
    bool operator==(const Iterator& other) const { return row_ == other.row_; }

   private:
    const OccurrenceList* list_;
    size_t row_;
  };

  OccurrenceList() = default;
  /// An empty list of rows of \p width vertices.
  explicit OccurrenceList(int32_t width) : width_(width) {}

  int32_t width() const { return width_; }
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  Row operator[](size_t i) const {
    return {data_.data() + i * static_cast<size_t>(width_),
            static_cast<size_t>(width_)};
  }
  Iterator begin() const { return {this, 0}; }
  Iterator end() const { return {this, rows_}; }

  /// Appends a row of width() zeros and returns it for the caller to fill.
  /// Invalidates earlier rows' spans when the buffer grows.
  std::span<VertexId> AppendRow() {
    data_.resize(data_.size() + static_cast<size_t>(width_));
    ++rows_;
    return {data_.data() + data_.size() - static_cast<size_t>(width_),
            static_cast<size_t>(width_)};
  }

  /// Appends a copy of \p row (row.size() == width()). \p row must not be
  /// a row of this list: the buffer may move.
  void Append(Row row) {
    assert(row.size() == static_cast<size_t>(width_));
    std::copy(row.begin(), row.end(), AppendRow().begin());
  }

  /// Overwrites row \p to with row \p from.
  void CopyRow(size_t from, size_t to) {
    const Row src = (*this)[from];
    std::copy(src.begin(), src.end(),
              data_.begin() + static_cast<std::ptrdiff_t>(to * width_));
  }

  /// Keeps the first \p rows rows (\p rows <= size()).
  void Truncate(size_t rows) {
    rows_ = rows;
    data_.resize(rows * static_cast<size_t>(width_));
  }

  /// Empties the list and sets its width, keeping the buffer's capacity.
  void Reset(int32_t width) {
    width_ = width;
    rows_ = 0;
    data_.clear();
  }

  void reserve(size_t rows) {
    data_.reserve(rows * static_cast<size_t>(width_));
  }

  /// Sorts the rows into lexicographic order (element-wise VertexId
  /// comparison). Enumeration order is an implementation detail (VF2's
  /// matching order, a fold), but DedupEmbeddingsByImage keeps the FIRST
  /// row per image and closure scores candidate edges through those rows,
  /// so sorting first makes every enumeration feed them identical input.
  void SortRows();

 private:
  int32_t width_ = 0;
  size_t rows_ = 0;
  std::vector<VertexId> data_;
};

}  // namespace spidermine
