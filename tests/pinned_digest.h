// Output digests for pinning a signal path's bytes in a test. Every
// compute backend prints the same bytes, so one pin serves them all.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

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

}  // namespace gdelay::test
