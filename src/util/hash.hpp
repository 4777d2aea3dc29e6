// FNV-1a, the one content hash: resume records key on a spec file's
// bytes with it, and the artifact cache keys a `.bench` netlist on it.
#pragma once

#include <cstdint>
#include <string_view>

namespace lsiq::util {

/// 64-bit FNV-1a over `bytes`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char byte : bytes) {
    hash ^= static_cast<unsigned char>(byte);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace lsiq::util
