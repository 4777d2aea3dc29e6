// FNV-1a, the one content hash: resume records key on a spec file's
// bytes (and on the files it reads) with it, and the artifact cache keys
// a `.bench` netlist on it.
#pragma once

#include <cstdint>
#include <string_view>

namespace lsiq::util {

/// 64-bit FNV-1a over `bytes`; pass a previous result as `hash` to
/// continue it, which hashes the concatenation.
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::string_view bytes,
    std::uint64_t hash = 14695981039346656037ULL) noexcept {
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace lsiq::util
