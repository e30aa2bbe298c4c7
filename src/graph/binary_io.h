#pragma once

#include <string>

#include "common/result.h"
#include "graph/labeled_graph.h"
#include "pattern/pattern.h"

/// \file binary_io.h
/// Versioned, checksummed binary persistence for graphs and patterns.
///
/// Layout (all integers little-endian; framing in graph/binary_format.h):
///
///   [0..3]   magic "SMG1" (graph) or "SMP1" (pattern)
///   [4..7]   uint32 format version (currently 2)
///   [8..15]  uint64 payload byte length
///   [16..19] uint32 CRC-32 of the payload
///   [20.. ]  payload
///
/// Graph payload: uint64 n, uint64 m, n x int32 labels, m x (int32, int32,
/// int32) edge endpoints + edge label. Pattern payload is identical with
/// 32-bit counts. Loads
/// verify magic, version, length and CRC before decoding and fail with
/// kIoError on any mismatch, so truncated or corrupted files are never
/// silently accepted. Stage I artifacts use their own zero-copy layout
/// (spider/spider_store_mmap.h).

namespace spidermine {

/// Writes \p graph to \p path in the binary format. Overwrites.
Status SaveGraphBinary(const LabeledGraph& graph, const std::string& path);

/// Loads a graph written by SaveGraphBinary.
Result<LabeledGraph> LoadGraphBinary(const std::string& path);

/// Serializes \p graph to an in-memory byte string (header + payload).
std::string GraphToBinary(const LabeledGraph& graph);

/// Decodes a byte string produced by GraphToBinary.
Result<LabeledGraph> GraphFromBinary(const std::string& bytes);

/// Writes \p pattern to \p path in the binary format. Overwrites.
Status SavePatternBinary(const Pattern& pattern, const std::string& path);

/// Loads a pattern written by SavePatternBinary.
Result<Pattern> LoadPatternBinary(const std::string& path);

/// Serializes \p pattern to an in-memory byte string.
std::string PatternToBinary(const Pattern& pattern);

/// Decodes a byte string produced by PatternToBinary.
Result<Pattern> PatternFromBinary(const std::string& bytes);

}  // namespace spidermine
