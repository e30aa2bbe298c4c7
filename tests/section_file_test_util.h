#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.h"

/// \file section_file_test_util.h
/// Reads and patches the section table of a `.sm2` / `.sm2p` image (the
/// container of graph/section_file.h), so tests can craft files that only
/// a semantic check can reject.

namespace spidermine {

template <typename T>
T LoadAt(const std::string& bytes, size_t pos) {
  T value;
  std::memcpy(&value, bytes.data() + pos, sizeof(value));
  return value;
}

template <typename T>
void StoreAt(std::string* bytes, size_t pos, T value) {
  std::memcpy(bytes->data() + pos, &value, sizeof(value));
}

inline uint32_t SectionCountOf(const std::string& bytes) {
  return LoadAt<uint32_t>(bytes, 8);
}

/// Bytes covered by the header CRC; the CRC itself follows.
inline size_t HeaderBytesOf(const std::string& bytes) {
  return 16 + size_t{32} * SectionCountOf(bytes);
}

struct SectionEntry {
  size_t offset = 0;
  size_t length = 0;
};

/// Where section \p kind lies, per the table.
inline SectionEntry EntryOf(const std::string& bytes, uint32_t kind) {
  const size_t entry = 16 + size_t{32} * kind;
  return {static_cast<size_t>(LoadAt<uint64_t>(bytes, entry + 8)),
          static_cast<size_t>(LoadAt<uint64_t>(bytes, entry + 16))};
}

/// Recomputes every section CRC in the table, then the header CRC.
inline void ResignAll(std::string* bytes) {
  for (uint32_t kind = 0; kind < SectionCountOf(*bytes); ++kind) {
    const SectionEntry e = EntryOf(*bytes, kind);
    StoreAt(bytes, 16 + size_t{32} * kind + 24,
            Crc32(std::string_view(*bytes).substr(e.offset, e.length)));
  }
  const size_t header = HeaderBytesOf(*bytes);
  StoreAt(bytes, header, Crc32(std::string_view(*bytes).substr(0, header)));
}

/// Raises the uint64 count at \p meta_field of the meta section (kind 0)
/// by \p delta, moves the last entry of each int64 offsets section in
/// \p offsets_kinds to the new count, and re-signs the file: a count that
/// only the overflow check can reject when \p delta x element size wraps.
inline void InflateCount(std::string* bytes, size_t meta_field,
                         uint64_t delta,
                         const std::vector<uint32_t>& offsets_kinds) {
  const size_t pos = EntryOf(*bytes, 0).offset + meta_field;
  const uint64_t count = LoadAt<uint64_t>(*bytes, pos) + delta;
  StoreAt(bytes, pos, count);
  for (uint32_t kind : offsets_kinds) {
    const SectionEntry e = EntryOf(*bytes, kind);
    StoreAt(bytes, e.offset + e.length - 8, static_cast<int64_t>(count));
  }
  ResignAll(bytes);
}

}  // namespace spidermine
