#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>

#include "common/crc32.h"
#include "common/result.h"
#include "common/strings.h"

/// \file binary_format.h
/// The single-payload envelope of the graph, pattern and `.smgp`
/// partition files — the versioned, checksummed framing graph/binary_io.h
/// documents (the zero-copy Stage I formats use graph/section_file.h):
///
///   [0..3]   4-byte magic   [4..7] uint32 version
///   [8..15]  uint64 payload length   [16..19] uint32 payload CRC-32
///   [20.. ]  payload (little-endian integers)
///
/// Codecs for concrete types live next to those types (graphs and patterns
/// in graph/binary_io) and share these helpers (the little-endian Append*
/// writers and Reader, which section-file meta sections use too), so the
/// graph layer never depends upward. Each codec owns its version number
/// (passed with the magic), so evolving one format never invalidates saved
/// files of the others.

namespace spidermine::binary_format {

constexpr size_t kHeaderSize = 20;

inline void AppendU8(std::string* out, uint8_t value) {
  out->push_back(static_cast<char>(value));
}

inline void AppendU32(std::string* out, uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

inline void AppendU64(std::string* out, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((value >> (8 * i)) & 0xFF));
  }
}

inline void AppendI32(std::string* out, int32_t value) {
  AppendU32(out, static_cast<uint32_t>(value));
}

inline void AppendI64(std::string* out, int64_t value) {
  AppendU64(out, static_cast<uint64_t>(value));
}

/// Bounds-checked little-endian reader over a byte string.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU8(uint8_t* out) {
    if (pos_ + 1 > bytes_.size()) return false;
    *out = static_cast<uint8_t>(bytes_[pos_]);
    ++pos_;
    return true;
  }

  bool ReadU32(uint32_t* out) {
    if (pos_ + 4 > bytes_.size()) return false;
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return true;
  }

  bool ReadU64(uint64_t* out) {
    if (pos_ + 8 > bytes_.size()) return false;
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return true;
  }

  bool ReadI32(int32_t* out) {
    uint32_t v = 0;
    if (!ReadU32(&v)) return false;
    *out = static_cast<int32_t>(v);
    return true;
  }

  bool ReadI64(int64_t* out) {
    uint64_t v = 0;
    if (!ReadU64(&v)) return false;
    *out = static_cast<int64_t>(v);
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

inline std::string WrapPayload(const char magic[4],
                               const std::string& payload,
                               uint32_t format_version) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(magic, 4);
  AppendU32(&out, format_version);
  AppendU64(&out, payload.size());
  AppendU32(&out, Crc32(payload));
  out += payload;
  return out;
}

/// Validates header framing (against the codec's own \p format_version)
/// and returns the payload view.
inline Result<std::string_view> UnwrapPayload(const std::string& bytes,
                                              const char magic[4],
                                              uint32_t format_version) {
  if (bytes.size() < kHeaderSize) {
    return Status::IoError(StrCat("file too short: ", bytes.size(),
                                  " bytes < ", kHeaderSize, "-byte header"));
  }
  if (std::memcmp(bytes.data(), magic, 4) != 0) {
    return Status::IoError(
        StrCat("bad magic; expected ", std::string(magic, 4)));
  }
  Reader header(std::string_view(bytes).substr(4, kHeaderSize - 4));
  uint32_t version = 0, crc = 0;
  uint64_t length = 0;
  header.ReadU32(&version);
  header.ReadU64(&length);
  header.ReadU32(&crc);
  if (version != format_version) {
    return Status::IoError(StrCat("unsupported format version ", version));
  }
  if (bytes.size() != kHeaderSize + length) {
    return Status::IoError(StrCat("length mismatch: header says ", length,
                                  " payload bytes, file has ",
                                  bytes.size() - kHeaderSize));
  }
  std::string_view payload = std::string_view(bytes).substr(kHeaderSize);
  if (Crc32(payload) != crc) {
    return Status::IoError("payload checksum mismatch (corrupted file)");
  }
  return payload;
}

inline Status WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IoError(StrCat("cannot open '", path, "' for writing"));
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    return Status::IoError(StrCat("short write to '", path, "'"));
  }
  return Status::Ok();
}

/// Reads the first four bytes of \p path (the format magic) without
/// loading the file, so callers can dispatch between codecs. Empty string
/// when the file is missing or shorter than four bytes.
inline std::string PeekMagic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[4];
  if (!in || !in.read(magic, 4)) return std::string();
  return std::string(magic, 4);
}

inline Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IoError(StrCat("cannot open '", path, "' for reading"));
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IoError(StrCat("read error on '", path, "'"));
  }
  return bytes;
}

}  // namespace spidermine::binary_format
