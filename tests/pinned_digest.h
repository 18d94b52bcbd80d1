// Output digests for pinning a signal path's bytes in a test. Pins are
// recorded per compute backend: the AVX2 one-pole scan rounds
// differently from the scalar oracle.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "backend/backend.h"

namespace gdelay::test {

/// FNV-1a over the bit patterns of `v`, little-endian byte order.
inline std::uint64_t digest(const std::vector<double>& v) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (double x : v) {
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof u);
    for (int b = 0; b < 8; ++b) h = (h ^ ((u >> (8 * b)) & 0xffu)) * 0x100000001b3ull;
  }
  return h;
}

/// The pin recorded for the active backend.
inline std::uint64_t pinned(std::uint64_t scalar, std::uint64_t avx2) {
  return std::strcmp(backend::active().name, "avx2") == 0 ? avx2 : scalar;
}

}  // namespace gdelay::test
