#pragma once

#include <cstdint>
#include <vector>

#include "pattern/embedding.h"

/// \file occurrence_test_util.h
/// Tests state embeddings, and keep their reference implementations, as
/// plain row vectors. ListOf builds the library's OccurrenceList from such
/// rows, and RowsOf reads a list back for comparison.

namespace spidermine {

/// Embedding rows as plain vectors: rows[i][u] = image of pattern vertex u.
using Rows = std::vector<std::vector<VertexId>>;

/// \p rows as an OccurrenceList of width \p width (by default the first
/// row's width, 0 when there are no rows).
inline OccurrenceList ListOf(const Rows& rows, int32_t width = -1) {
  if (width < 0) {
    width = rows.empty() ? 0 : static_cast<int32_t>(rows.front().size());
  }
  OccurrenceList list(width);
  for (const std::vector<VertexId>& row : rows) list.Append(row);
  return list;
}

/// The rows of \p list, in order.
inline Rows RowsOf(const OccurrenceList& list) {
  Rows rows;
  for (OccurrenceList::Row row : list) {
    rows.emplace_back(row.begin(), row.end());
  }
  return rows;
}

}  // namespace spidermine
