#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mapped_file.h"
#include "common/result.h"
#include "graph/binary_format.h"

/// \file section_file.h
/// The section-table container that `.sm2` (spider/spider_store_mmap.h)
/// and `.sm2p` (spidermine/stage1_partition.h) are section lists over.
/// Layout (docs/FORMATS.md; integers little-endian):
///
///   [0..3] magic  [4..7] uint32 version  [8..11] uint32 section count
///   [12..15] reserved; then per section a 32-byte table entry: uint32
///   kind (= index), reserved, uint64 offset, uint64 length, uint32 CRC-32,
///   reserved; then a uint32 header CRC-32 over all of the above. Sections
///   follow in table order, each 64-byte aligned with zero padding between
///   them, and the file ends exactly at the last section's end.
///
/// A format names its sections and, from its meta section, their expected
/// shapes; the container owns the writer and every structural check.
/// Sections are used in place, so only little-endian hosts are supported.

namespace spidermine {

struct SectionFormat {
  std::string_view magic;  // 4 bytes
  uint32_t version = 0;
  std::string_view name;                  // prefixes every error message
  std::span<const char* const> sections;  // names, kind = index
};

/// A section's expected length: \p count elements of \p element_size bytes.
struct SectionShape {
  uint64_t count = 0;
  uint64_t element_size = 1;
};

/// kIoError on a big-endian host, which cannot use \p format in place.
Status CheckSectionFileHost(const SectionFormat& format);

template <typename T>
std::span<const uint8_t> AsBytes(std::span<const T> data) {
  return {reinterpret_cast<const uint8_t*>(data.data()), data.size_bytes()};
}

/// Serializes \p sections (one per format section, in kind order).
std::string WriteSectionFile(
    const SectionFormat& format,
    std::span<const std::span<const uint8_t>> sections);

/// An opened section file: owns the mapping and has checked the table.
class SectionFile {
 public:
  /// Checks \p file's magic, size, version, section count, header CRC,
  /// kind order, alignment, bounds and trailing bytes.
  static Result<SectionFile> Open(const SectionFormat& format,
                                  MappedFile file);

  /// Checks the CRCs of sections [first, end).
  Status CheckCrcs(uint32_t first, uint32_t end) const;

  /// Checks sections [0, shapes.size()) against \p shapes. Each count is
  /// bounded by the file size before it is multiplied, so none can wrap
  /// to a matching length.
  Status CheckLengths(std::span<const SectionShape> shapes) const;

  /// Checks the int64 offsets array of section \p kind: starts at 0,
  /// non-decreasing, ends at \p expected_total.
  Status CheckOffsets(uint32_t kind, uint64_t expected_total) const;

  template <typename T>
  std::span<const T> Span(uint32_t kind) const {
    const Section& s = sections_[kind];
    return {reinterpret_cast<const T*>(file_.bytes().data() + s.offset),
            static_cast<size_t>(s.length / sizeof(T))};
  }

  /// A field reader over the meta section (kind 0), after checking its
  /// CRC and that it is exactly \p length bytes.
  Result<binary_format::Reader> Meta(uint64_t length) const;

  bool is_mapped() const { return file_.is_mapped(); }
  size_t size() const { return file_.size(); }

 private:
  struct Section {
    uint64_t offset = 0;
    uint64_t length = 0;
    uint32_t crc = 0;
  };

  Status SectionError(uint32_t kind, const std::string& what) const;

  SectionFormat format_;
  MappedFile file_;
  std::vector<Section> sections_;
};

}  // namespace spidermine
