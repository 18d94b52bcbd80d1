// Digital bit-pattern generators.
//
// PRBS polynomials are the standard fibonacci LFSRs used by BERT pattern
// generators (PRBS7 = x^7+x^6+1, PRBS15 = x^15+x^14+1,
// PRBS31 = x^31+x^28+1). These are the stimuli the paper's prototype was
// evaluated with ("7 Gb/s NRZ data", eye diagrams of random data).
#pragma once

#include <cstdint>
#include <vector>

namespace gdelay::sig {

using BitPattern = std::vector<int>;  // each element 0 or 1

/// Fibonacci LFSR PRBS generator.
class PrbsGenerator {
 public:
  /// `order` must be one of 7, 15, 23, 31. `seed` must be nonzero in its
  /// low `order` bits (an all-zero LFSR state is absorbing); a zero seed is
  /// replaced by the all-ones state.
  explicit PrbsGenerator(int order, std::uint32_t seed = 0);

  int order() const { return order_; }

  /// Sequence period: 2^order - 1.
  std::uint64_t period() const { return (1ULL << order_) - 1; }

  /// Next bit (0/1).
  int next();

  /// Next `n` bits.
  BitPattern take(std::size_t n);

 private:
  int order_;
  int tap_;  // second feedback tap position
  std::uint32_t state_;
};

/// n bits of PRBS of the given order.
BitPattern prbs(int order, std::size_t n, std::uint32_t seed = 0);

/// 0,1,0,1,... ("clock-like" NRZ data, one transition per bit).
BitPattern alternating(std::size_t n, int first = 0);

/// Number of 1 bits.
std::size_t popcount(const BitPattern& bits);

/// Length of the longest run of identical bits.
std::size_t longest_run(const BitPattern& bits);

/// Number of bit transitions (positions i where bits[i] != bits[i-1]).
std::size_t transition_count(const BitPattern& bits);

/// Repeated K28.5 comma characters (8b/10b: 0011111010 / 1100000101,
/// alternating disparity) — the classic SerDes alignment/stress pattern,
/// mixing the fastest toggle with a 5-bit run.
BitPattern k285(std::size_t n_codewords);

/// Run-length stress: alternating segments of a long run (`run` identical
/// bits) and fast 0101 toggles of the same length — exercises both the
/// ISI extremes the eye diagrams fold together.
BitPattern run_length_stress(std::size_t n_bits, std::size_t run = 8);

}  // namespace gdelay::sig
