#include "graph/section_file.h"

#include <bit>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "common/strings.h"
#include "graph/binary_format.h"

namespace spidermine {

namespace {

using binary_format::AppendU32;
using binary_format::AppendU64;

constexpr size_t kPreambleBytes = 16;
constexpr size_t kTableEntryBytes = 32;
constexpr uint64_t kSectionAlign = 64;

uint64_t AlignUp(uint64_t offset) {
  return (offset + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

uint32_t LoadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // little-endian host (CheckSectionFileHost)
}

uint64_t LoadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

}  // namespace

std::string WriteSectionFile(
    const SectionFormat& format,
    std::span<const std::span<const uint8_t>> sections) {
  std::string out(format.magic.substr(0, 4));
  AppendU32(&out, format.version);
  AppendU32(&out, static_cast<uint32_t>(sections.size()));
  AppendU32(&out, 0);  // reserved
  // The header CRC covers the preamble and table and precedes section 0.
  uint64_t cursor = kPreambleBytes + sections.size() * kTableEntryBytes + 4;
  for (size_t kind = 0; kind < sections.size(); ++kind) {
    const uint64_t offset = AlignUp(cursor);
    cursor = offset + sections[kind].size();
    AppendU32(&out, static_cast<uint32_t>(kind));
    AppendU32(&out, 0);  // reserved
    AppendU64(&out, offset);
    AppendU64(&out, sections[kind].size());
    AppendU32(&out, Crc32(sections[kind]));
    AppendU32(&out, 0);  // reserved
  }
  AppendU32(&out, Crc32(out));
  out.reserve(static_cast<size_t>(cursor));
  for (const std::span<const uint8_t> section : sections) {
    out.resize(static_cast<size_t>(AlignUp(out.size())), '\0');
    out.append(reinterpret_cast<const char*>(section.data()), section.size());
  }
  return out;
}

Status CheckSectionFileHost(const SectionFormat& format) {
  if (std::endian::native == std::endian::little) return Status::Ok();
  return Status::IoError(StrCat("the .", format.name,
                                " format is little-endian only and cannot "
                                "be used on this host"));
}

Result<SectionFile> SectionFile::Open(const SectionFormat& format,
                                      MappedFile file) {
  SM_RETURN_NOT_OK(CheckSectionFileHost(format));
  const std::span<const uint8_t> data = file.bytes();
  const size_t count = format.sections.size();
  const size_t header_bytes = kPreambleBytes + count * kTableEntryBytes;
  if (data.size() < 4 ||
      std::memcmp(data.data(), format.magic.data(), 4) != 0) {
    return Status::IoError(StrCat(format.name, " bad magic; expected ",
                                  format.magic));
  }
  if (data.size() < header_bytes + 4) {
    return Status::IoError(StrCat(format.name, " file too short: ",
                                  data.size(), " bytes < ", header_bytes + 4,
                                  "-byte header"));
  }
  const uint32_t version = LoadU32(data.data() + 4);
  if (version != format.version) {
    return Status::IoError(StrCat("unsupported ", format.name,
                                  " format version ", version));
  }
  const uint32_t section_count = LoadU32(data.data() + 8);
  if (section_count != count) {
    return Status::IoError(StrCat(format.name, " section count ",
                                  section_count, " != expected ", count));
  }
  if (Crc32(data.subspan(0, header_bytes)) !=
      LoadU32(data.data() + header_bytes)) {
    return Status::IoError(
        StrCat(format.name,
               " header checksum mismatch (corrupted or truncated file)"));
  }

  SectionFile result;
  result.format_ = format;
  result.sections_.resize(count);
  // Fixed kind order, 64-byte aligned, ascending, non-overlapping, inside
  // the file, and the file ends exactly at the last section's end.
  uint64_t prev_end = header_bytes + 4;
  for (uint32_t kind = 0; kind < count; ++kind) {
    const uint8_t* entry = data.data() + kPreambleBytes +
                           kind * kTableEntryBytes;
    Section& section = result.sections_[kind];
    const uint32_t entry_kind = LoadU32(entry);
    section.offset = LoadU64(entry + 8);
    section.length = LoadU64(entry + 16);
    section.crc = LoadU32(entry + 24);
    if (entry_kind != kind) {
      return result.SectionError(kind, StrCat("has kind ", entry_kind));
    }
    if (section.offset % kSectionAlign != 0) {
      return result.SectionError(
          kind, StrCat("misaligned at offset ", section.offset));
    }
    if (section.offset < prev_end || section.offset > data.size() ||
        section.length > data.size() - section.offset) {
      return result.SectionError(
          kind, StrCat("out of bounds (offset ", section.offset, ", length ",
                       section.length, ", file ", data.size(), " bytes)"));
    }
    prev_end = section.offset + section.length;
  }
  if (prev_end != data.size()) {
    return Status::IoError(StrCat(format.name,
                                  " trailing bytes: sections end at ",
                                  prev_end, ", file has ", data.size(),
                                  " (truncated or padded file)"));
  }
  result.file_ = std::move(file);
  return result;
}

Status SectionFile::CheckCrcs(uint32_t first, uint32_t end) const {
  for (uint32_t kind = first; kind < end; ++kind) {
    if (Crc32(Span<uint8_t>(kind)) != sections_[kind].crc) {
      return SectionError(kind,
                          "checksum mismatch (corrupted or tampered file)");
    }
  }
  return Status::Ok();
}

Status SectionFile::CheckLengths(std::span<const SectionShape> shapes) const {
  for (uint32_t kind = 0; kind < shapes.size(); ++kind) {
    const SectionShape& shape = shapes[kind];
    if (shape.count > size() / shape.element_size) {
      return SectionError(kind, StrCat("count ", shape.count, " x ",
                                       shape.element_size,
                                       " bytes cannot fit the ", size(),
                                       "-byte file"));
    }
    const uint64_t expected = shape.count * shape.element_size;
    if (sections_[kind].length != expected) {
      return SectionError(kind, StrCat("has ", sections_[kind].length,
                                       " bytes, expected ", expected));
    }
  }
  return Status::Ok();
}

Result<binary_format::Reader> SectionFile::Meta(uint64_t length) const {
  const SectionShape shape{length, 1};
  SM_RETURN_NOT_OK(CheckLengths({&shape, 1}));
  SM_RETURN_NOT_OK(CheckCrcs(0, 1));
  const std::span<const char> b = Span<char>(0);
  return binary_format::Reader(std::string_view(b.data(), b.size()));
}

Status SectionFile::CheckOffsets(uint32_t kind,
                                 uint64_t expected_total) const {
  const std::span<const int64_t> offsets = Span<int64_t>(kind);
  if (offsets.empty() || offsets.front() != 0) {
    return SectionError(kind, "does not start at 0");
  }
  for (size_t i = 1; i < offsets.size(); ++i) {
    if (offsets[i] < offsets[i - 1]) {
      return SectionError(kind, StrCat("not monotonic at entry ", i));
    }
  }
  if (static_cast<uint64_t>(offsets.back()) != expected_total) {
    return SectionError(kind, StrCat("ends at ", offsets.back(),
                                     ", expected ", expected_total));
  }
  return Status::Ok();
}

Status SectionFile::SectionError(uint32_t kind,
                                 const std::string& what) const {
  return Status::IoError(StrCat(format_.name, " section ",
                                format_.sections[kind], " ", what));
}

}  // namespace spidermine
