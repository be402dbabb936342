// Self-checking block content and the storage replay oracle.
//
// Every block the benchmark writes (the seeded version 0 and every later
// write) carries a 16-byte header {file, index, version, tag} and a body
// derived from the tag, where the tag is a hash of (seed, file, index,
// version). A read can therefore check each block it returns on its own:
// right file, right block, a body that matches its header — a torn block
// (bytes of two versions) or a misplaced one fails.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ccm/storage.hpp"

namespace perfbench {

inline constexpr std::uint32_t kBlockBytes = 8 * 1024;
inline constexpr std::size_t kHeaderBytes = 16;

inline std::uint32_t block_tag(std::uint64_t seed, std::uint32_t file,
                               std::uint32_t index, std::uint32_t version) {
  std::uint64_t x = seed ^ (static_cast<std::uint64_t>(file) << 40) ^
                    (static_cast<std::uint64_t>(index) << 20) ^
                    (static_cast<std::uint64_t>(version) * 0x9E3779B97F4A7C15ull);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return static_cast<std::uint32_t>(x);
}

inline std::uint32_t body_word(std::uint32_t tag, std::uint32_t k) {
  return tag * (2 * k + 1) + k;
}

inline void fill_block(std::span<std::byte> out, std::uint64_t seed,
                       std::uint32_t file, std::uint32_t index,
                       std::uint32_t version) {
  const std::uint32_t tag = block_tag(seed, file, index, version);
  const std::uint32_t header[4] = {file, index, version, tag};
  std::memcpy(out.data(), header, kHeaderBytes);
  const auto words =
      static_cast<std::uint32_t>((out.size() - kHeaderBytes) / 4);
  for (std::uint32_t k = 0; k < words; ++k) {
    const std::uint32_t w = body_word(tag, k);
    std::memcpy(out.data() + kHeaderBytes + 4 * k, &w, 4);
  }
}

inline std::vector<std::byte> make_block(std::uint64_t seed,
                                         std::uint32_t file,
                                         std::uint32_t index,
                                         std::uint32_t version) {
  std::vector<std::byte> b(kBlockBytes);
  fill_block(b, seed, file, index, version);
  return b;
}

/// The version a well-formed block of (file, index) carries, or nullopt
/// when the block is torn, misplaced or corrupt.
inline std::optional<std::uint32_t> check_block(std::span<const std::byte> in,
                                                std::uint64_t seed,
                                                std::uint32_t file,
                                                std::uint32_t index) {
  if (in.size() != kBlockBytes) return std::nullopt;
  std::uint32_t header[4];
  std::memcpy(header, in.data(), kHeaderBytes);
  if (header[0] != file || header[1] != index) return std::nullopt;
  const std::uint32_t tag = header[3];
  if (tag != block_tag(seed, file, index, header[2])) return std::nullopt;
  const auto words = static_cast<std::uint32_t>((in.size() - kHeaderBytes) / 4);
  for (std::uint32_t k = 0; k < words; ++k) {
    std::uint32_t w;
    std::memcpy(&w, in.data() + kHeaderBytes + 4 * k, 4);
    if (w != body_word(tag, k)) return std::nullopt;
  }
  return header[2];
}

/// One block write the workload issued, in issue order per driver.
struct BlockWrite {
  std::uint32_t file;
  std::uint32_t index;
  std::uint32_t version;
};

/// Writes version 0 of every block of every file.
inline void seed_storage(coop::ccm::WritableStorage& storage,
                         const std::vector<std::uint32_t>& file_blocks,
                         std::uint64_t seed) {
  std::vector<std::byte> block(kBlockBytes);
  for (std::uint32_t f = 0; f < file_blocks.size(); ++f) {
    for (std::uint32_t b = 0; b < file_blocks[f]; ++b) {
      fill_block(block, seed, f, b, 0);
      storage.write(f, static_cast<std::uint64_t>(b) * kBlockBytes, block);
    }
  }
}

inline std::vector<std::uint32_t> file_sizes(
    const std::vector<std::uint32_t>& file_blocks) {
  std::vector<std::uint32_t> sizes;
  for (const std::uint32_t b : file_blocks) sizes.push_back(b * kBlockBytes);
  return sizes;
}

/// The replay oracle: applies `writes` serially to a freshly seeded store
/// and compares it byte for byte with `actual`. Returns the first
/// difference, or nullopt when they are equal.
inline std::optional<std::string> replay_mismatch(
    const coop::ccm::Storage& actual,
    const std::vector<std::uint32_t>& file_blocks, std::uint64_t seed,
    const std::vector<BlockWrite>& writes) {
  coop::ccm::BufferStorage expected(file_sizes(file_blocks));
  seed_storage(expected, file_blocks, seed);
  std::vector<std::byte> block(kBlockBytes);
  for (const BlockWrite& w : writes) {
    fill_block(block, seed, w.file, w.index, w.version);
    expected.write(w.file, static_cast<std::uint64_t>(w.index) * kBlockBytes,
                   block);
  }
  if (actual.file_count() != file_blocks.size()) {
    return "storage holds " + std::to_string(actual.file_count()) +
           " files, expected " + std::to_string(file_blocks.size());
  }
  std::vector<std::byte> a;
  std::vector<std::byte> e;
  for (std::uint32_t f = 0; f < file_blocks.size(); ++f) {
    const std::uint64_t size = expected.file_size(f);
    if (actual.file_size(f) != size) {
      return "file " + std::to_string(f) + " has the wrong size";
    }
    a.resize(size);
    e.resize(size);
    actual.read(f, 0, a);
    expected.read(f, 0, e);
    for (std::uint64_t i = 0; i < size; ++i) {
      if (a[i] != e[i]) {
        return "storage differs from the serial replay at file " +
               std::to_string(f) + " byte " + std::to_string(i);
      }
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
