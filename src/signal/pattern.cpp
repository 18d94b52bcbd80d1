#include "signal/pattern.h"

#include <algorithm>
#include <stdexcept>

namespace gdelay::sig {

namespace {
int second_tap_for(int order) {
  switch (order) {
    case 7: return 6;    // x^7 + x^6 + 1
    case 15: return 14;  // x^15 + x^14 + 1
    case 23: return 18;  // x^23 + x^18 + 1
    case 31: return 28;  // x^31 + x^28 + 1
    default:
      throw std::invalid_argument("PrbsGenerator: order must be 7/15/23/31");
  }
}
}  // namespace

PrbsGenerator::PrbsGenerator(int order, std::uint32_t seed)
    : order_(order), tap_(second_tap_for(order)), state_(seed) {
  const std::uint32_t mask =
      order_ == 31 ? 0x7fffffffu : ((1u << order_) - 1u);
  state_ &= mask;
  if (state_ == 0) state_ = mask;  // avoid the absorbing all-zero state
}

int PrbsGenerator::next() {
  // Left-shift Fibonacci form: feedback = x^order XOR x^tap, new bit
  // enters at the LSB and is also the output (the standard BERT pattern).
  const std::uint32_t fb =
      ((state_ >> (order_ - 1)) ^ (state_ >> (tap_ - 1))) & 1u;
  const std::uint32_t mask =
      order_ == 31 ? 0x7fffffffu : ((1u << order_) - 1u);
  state_ = ((state_ << 1) | fb) & mask;
  return static_cast<int>(fb);
}

BitPattern PrbsGenerator::take(std::size_t n) {
  BitPattern out(n);
  for (auto& b : out) b = next();
  return out;
}

BitPattern prbs(int order, std::size_t n, std::uint32_t seed) {
  return PrbsGenerator(order, seed).take(n);
}

BitPattern alternating(std::size_t n, int first) {
  BitPattern out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<int>((i + static_cast<std::size_t>(first)) & 1u);
  return out;
}

std::size_t popcount(const BitPattern& bits) {
  return static_cast<std::size_t>(std::count(bits.begin(), bits.end(), 1));
}

std::size_t longest_run(const BitPattern& bits) {
  std::size_t best = 0, cur = 0;
  int prev = -1;
  for (int b : bits) {
    cur = (b == prev) ? cur + 1 : 1;
    prev = b;
    best = std::max(best, cur);
  }
  return best;
}

std::size_t transition_count(const BitPattern& bits) {
  std::size_t n = 0;
  for (std::size_t i = 1; i < bits.size(); ++i)
    if (bits[i] != bits[i - 1]) ++n;
  return n;
}

BitPattern k285(std::size_t n_codewords) {
  static const int plus[10] = {0, 0, 1, 1, 1, 1, 1, 0, 1, 0};
  static const int minus[10] = {1, 1, 0, 0, 0, 0, 0, 1, 0, 1};
  BitPattern out;
  out.reserve(n_codewords * 10);
  for (std::size_t k = 0; k < n_codewords; ++k) {
    const int* cw = (k & 1) ? minus : plus;
    out.insert(out.end(), cw, cw + 10);
  }
  return out;
}

BitPattern run_length_stress(std::size_t n_bits, std::size_t run) {
  if (run == 0) run = 1;
  BitPattern out;
  out.reserve(n_bits);
  bool long_segment = true;
  while (out.size() < n_bits) {
    // Each segment starts with the complement of the last emitted bit so
    // runs never merge across the segment boundary.
    const int start = out.empty() ? 1 : 1 - out.back();
    if (long_segment) {
      for (std::size_t i = 0; i < run && out.size() < n_bits; ++i)
        out.push_back(start);
    } else {
      for (std::size_t i = 0; i < run && out.size() < n_bits; ++i)
        out.push_back(static_cast<int>(i & 1u) == 0 ? start : 1 - start);
    }
    long_segment = !long_segment;
  }
  return out;
}

}  // namespace gdelay::sig
