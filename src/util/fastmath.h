// Deterministic, portable math kernels for the per-sample signal path.
//
// The simulator's outputs must be exactly reproducible — across runs,
// thread counts, *and* toolchains. libm's tanh is only accurate to a few
// ulp and its exact bit patterns differ between libc versions, so every
// simulation result used to inherit the host's libm. det_tanh removes
// that dependence: pure IEEE-754 arithmetic (add/mul/div and bit
// manipulation only — every operation is correctly rounded and identical
// on any conforming platform), with relative error < 1e-13 against true
// tanh. That error corresponds to sub-attosecond edge-timing shifts in
// the behavioral models — more than six orders of magnitude below the
// circuit noise floor — while being straight-line code (no branches at
// all) so it auto-vectorizes in the block-processing kernels on bare
// SSE2: rounding uses the add-magic-constant trick, not rint, and 2^k
// is assembled with integer adds, not a double->int conversion.
//
// The scalar kernels and the per-sample control paths (A(Vctrl), the SJ
// sine) call these same functions, so partition invariance of the block
// path (tests/test_block_kernels.cpp) is preserved by construction.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace gdelay::util {

/// tanh(x) with < 1e-13 relative error, deterministic across platforms.
///
/// Single branch-free formula: tanh(x) = em1 / (em1 + 2) with
/// em1 = e^{2x} - 1 computed expm1-style so small |x| loses no
/// precision:  em1 = 2^k * (e^r - 1) + (2^k - 1),  k = round(2x*log2 e),
/// |r| <= ln2/2, e^r - 1 by its odd-started Taylor series through r^11
/// (the polynomial has no trailing +1, so there is no 1 - (almost 1)
/// cancellation anywhere), 2^k by exponent-field construction. For
/// |x| < 0.173, k == 0 and the formula degenerates to the pure series.
/// Inputs are clamped to [-20, 20], where tanh rounds to +-1 exactly.
/// Evaluated on |x| with the sign copied back at the end, so odd
/// symmetry tanh(-x) == -tanh(x) holds bit-exactly by construction.
inline double det_tanh(double x) {
  constexpr std::uint64_t kSignBit = 0x8000000000000000ull;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t abs_bits = bits & ~kSignBit;
  // Saturate |x| at 20: keeps 2^k finite and is exact (tanh rounds to 1
  // there). Written as an integer mask-select, not a double ternary: the
  // bit patterns of non-negative doubles order like unsigned integers,
  // and `abs_bits > kBits20` is exactly "kBits20 - abs_bits has its top
  // bit set" (both are below 2^63). A ternary would leave a branch —
  // GCC refuses minsd under strict IEEE (NaN semantics) and then jump
  // threading specializes the constant-folded saturated arm, killing
  // vectorization; this form is branch-free subtract/shift/mask, all of
  // it SSE2 V2DI. (NaN and inf inputs saturate too: they map to +-1.)
  constexpr std::uint64_t kBits20 = 0x4034000000000000ull;  // == 20.0
  const std::uint64_t sat = 0 - ((kBits20 - abs_bits) >> 63);
  const double xc =
      std::bit_cast<double>((kBits20 & sat) | (abs_bits & ~sat));

  // e^{2x} = 2^k * e^{r*ln2}, z = 2x*log2(e) = k + r, |r| <= 0.5.
  constexpr double kLog2E2 = 2.0 * 1.4426950408889634074;  // 2*log2(e)
  constexpr double kLn2 = 0.6931471805599453094;
  // Round-to-nearest-even via the 1.5*2^52 magic constant (|z| < 2^51):
  // plain add/sub, so the loop vectorizes on bare SSE2.
  constexpr double kRound = 6755399441055744.0;
  const double z = xc * kLog2E2;
  const double m = z + kRound;
  const double kd = m - kRound;
  const double t = (z - kd) * kLn2;  // in [-ln2/2, ln2/2]

  // e^t - 1 = t * P(t), P = Taylor of (e^t - 1)/t through t^10
  // (i.e. e^t through t^11): max rel error ~2e-14 at |t| = ln2/2.
  double p = 2.5052108385441718775e-8;          // 1/11!
  p = p * t + 2.7557319223985890653e-7;         // 1/10!
  p = p * t + 2.7557319223985892511e-6;         // 1/9!
  p = p * t + 2.4801587301587301566e-5;         // 1/8!
  p = p * t + 1.9841269841269841253e-4;         // 1/7!
  p = p * t + 1.3888888888888889419e-3;         // 1/6!
  p = p * t + 8.3333333333333332177e-3;         // 1/5!
  p = p * t + 4.1666666666666664354e-2;         // 1/4!
  p = p * t + 1.6666666666666665741e-1;         // 1/3!
  p = p * t + 5.0e-1;                           // 1/2!
  p = p * t + 1.0;                              // 1/1!
  const double em1r = p * t;                    // e^r' - 1, r' = t

  // 2^k assembled directly in the exponent field. k is recovered from
  // the magic-rounded sum's bit pattern (m and kRound share an exponent,
  // so their bit patterns differ by exactly k) — integer arithmetic
  // only, because packed double->int64 conversion does not exist below
  // AVX-512 and would block vectorization. |k| <= 58 after the clamp,
  // so the biased exponent stays in range.
  const std::int64_t ki =
      std::bit_cast<std::int64_t>(m) - std::bit_cast<std::int64_t>(kRound);
  const double scale =
      std::bit_cast<double>(static_cast<std::uint64_t>(ki + 1023) << 52);

  // e^{2x} - 1 = 2^k (e^r - 1) + (2^k - 1). When k == 0 the second term
  // is exactly zero and the series value passes through untouched, so
  // small inputs keep full precision; when k != 0, |e^{2x} - 1| >= 0.29
  // and the one-bit cancellation near the k boundaries is harmless.
  const double em1 = scale * em1r + (scale - 1.0);
  const double pos = em1 / (em1 + 2.0);  // tanh(|x|), in [0, 1]
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(pos) |
                               (bits & kSignBit));
}

/// exp(x) with < 1e-13 relative error, deterministic across platforms.
/// Same construction as the e^{2x} core of det_tanh: x = k*ln2 + r with
/// k = round(x*log2 e) via the magic-constant trick, e^r by the Taylor
/// series through r^11, 2^k assembled in the exponent field — branch-free
/// straight-line arithmetic that vectorizes on bare SSE2. Inputs are
/// clamped to [-708, 708] (beyond which exp under/overflows anyway), so
/// the biased exponent stays in the normal range; the coefficient
/// derivations that call this (alpha = 1 - exp(-dt/tau)) live far inside
/// that window.
inline double det_exp(double x) {
  // Branch-free clamp to [-708, 708] through the ordered-bit-pattern
  // trick used in det_tanh: for finite doubles, value order matches the
  // order of sign-magnitude bit patterns, so the compare runs on the
  // integer unit and the select is mask arithmetic.
  constexpr std::uint64_t kSignBit = 0x8000000000000000ull;
  constexpr std::uint64_t kBits708 = 0x4086200000000000ull;  // == 708.0
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t abs_bits = bits & ~kSignBit;
  const std::uint64_t big = 0 - ((kBits708 - abs_bits) >> 63);
  const std::uint64_t mag = (kBits708 & big) | (abs_bits & ~big);
  const double xc = std::bit_cast<double>(mag | (bits & kSignBit));

  constexpr double kLog2E = 1.4426950408889634074;
  constexpr double kLn2Hi = 6.93147180369123816490e-1;  // ln2 head
  constexpr double kLn2Lo = 1.90821492927058770002e-10; // ln2 tail
  constexpr double kRound = 6755399441055744.0;  // 1.5 * 2^52
  const double z = xc * kLog2E;
  const double m = z + kRound;
  const double kd = m - kRound;
  // Two-piece ln2 keeps r = x - k*ln2 accurate to ~1e-19 even for the
  // largest |k| ~ 1021, where a single-double ln2 would lose 8 bits.
  const double r = (xc - kd * kLn2Hi) - kd * kLn2Lo;

  double p = 2.5052108385441718775e-8;          // 1/11!
  p = p * r + 2.7557319223985890653e-7;         // 1/10!
  p = p * r + 2.7557319223985892511e-6;         // 1/9!
  p = p * r + 2.4801587301587301566e-5;         // 1/8!
  p = p * r + 1.9841269841269841253e-4;         // 1/7!
  p = p * r + 1.3888888888888889419e-3;         // 1/6!
  p = p * r + 8.3333333333333332177e-3;         // 1/5!
  p = p * r + 4.1666666666666664354e-2;         // 1/4!
  p = p * r + 1.6666666666666665741e-1;         // 1/3!
  p = p * r + 5.0e-1;                           // 1/2!
  p = p * r + 1.0;                              // 1/1!
  p = p * r + 1.0;                              // e^r

  const std::int64_t ki =
      std::bit_cast<std::int64_t>(m) - std::bit_cast<std::int64_t>(kRound);
  const double scale =
      std::bit_cast<double>(static_cast<std::uint64_t>(ki + 1023) << 52);
  return scale * p;
}

/// log(x) for normal positive x, with < 1e-13 relative error,
/// deterministic across platforms. Same construction discipline as
/// det_tanh: branch-free, integer exponent extraction, short Horner
/// polynomial — vectorizes on bare SSE2. Domain: x in [DBL_MIN, DBL_MAX]
/// normals (the Box-Muller u1 is in [2^-53, 1], well inside). Zero,
/// denormal, negative, inf and NaN inputs return unspecified values.
///
/// Reduction: x = 2^e * m with m in [sqrt(2)/2, sqrt(2)), then
/// log m = 2 atanh(s), s = (m-1)/(m+1), |s| <= 0.1716, by the odd
/// Taylor series through s^17. log x = e*ln2 + log m (no cancellation:
/// whenever e != 0, |log m| <= 0.35 < 0.69 <= |e|*ln2).
inline double det_log(double x) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  constexpr std::uint64_t kMant = 0x000fffffffffffffull;
  constexpr std::uint64_t kOne = 0x3ff0000000000000ull;  // == 1.0
  // Mantissa as a double in [1, 2).
  std::uint64_t man_bits = (bits & kMant) | kOne;
  // If m >= sqrt(2), halve m and carry into the exponent — branch-free
  // unsigned compare via the top bit of the difference (values < 2^63).
  constexpr std::uint64_t kBitsSqrt2 = 0x3ff6a09e667f3bcdull;  // sqrt(2)
  const std::uint64_t ge = (kBitsSqrt2 - 1 - man_bits) >> 63;  // 1 if >=
  man_bits -= ge << 52;
  const double m = std::bit_cast<double>(man_bits);
  // Exponent as a double via the inverse magic-rounding trick (adding a
  // small integer k to kRound's bit pattern yields the double kRound + k
  // exactly) — packed int64->double conversion does not exist on SSE2.
  constexpr double kRound = 6755399441055744.0;  // 1.5 * 2^52
  const std::int64_t e_i = static_cast<std::int64_t>(bits >> 52) - 1023 +
                           static_cast<std::int64_t>(ge);
  const double e = std::bit_cast<double>(
                       std::bit_cast<std::int64_t>(kRound) + e_i) -
                   kRound;
  // atanh series in w = s^2 (|s| <= 0.1716 -> w <= 0.02944): truncation
  // after the s^19 term leaves a relative error ~ s^20/21 < 1e-16.
  const double s = (m - 1.0) / (m + 1.0);
  const double w = s * s;
  double q = 1.0526315789473684211e-1;   // 2/19 (w^9)
  q = q * w + 1.1764705882352941176e-1;  // 2/17
  q = q * w + 1.3333333333333333333e-1;  // 2/15
  q = q * w + 1.5384615384615384615e-1;  // 2/13
  q = q * w + 1.8181818181818181818e-1;  // 2/11
  q = q * w + 2.2222222222222222222e-1;  // 2/9
  q = q * w + 2.8571428571428571429e-1;  // 2/7
  q = q * w + 4.0e-1;                    // 2/5
  q = q * w + 6.6666666666666666667e-1;  // 2/3
  q = q * w + 2.0;                       // 2/1
  constexpr double kLn2 = 0.6931471805599453094;
  return e * kLn2 + s * q;
}

/// sin(2*pi*u) and cos(2*pi*u) for u in [0, 1), < 1e-13 relative error,
/// deterministic across platforms, branch-free, vectorizable.
///
/// The angle never needs Payne-Hanek reduction: 4u is exact, the
/// quadrant j = round(4u) comes from the magic-rounding bit trick, and
/// theta = (4u - j) * (pi/2) lies in [-pi/4, pi/4] where short Taylor
/// polynomials reach ~1e-16. Quadrant swap and sign flips are integer
/// mask selects. Because the reduction is relative to the quadrant
/// boundaries, results stay *relatively* accurate near every zero of
/// sin and cos (unlike evaluating a polynomial at 2*pi*u directly).
/// Out-of-domain u gives unspecified values.
inline void det_sincos2pi(double u, double& out_sin, double& out_cos) {
  constexpr double kRound = 6755399441055744.0;  // 1.5 * 2^52
  const double z4 = 4.0 * u;                     // exact
  const double m4 = z4 + kRound;
  const std::int64_t j =
      std::bit_cast<std::int64_t>(m4) - std::bit_cast<std::int64_t>(kRound);
  const double f = z4 - (m4 - kRound);  // exact, in [-1/2, 1/2]
  constexpr double kPiHalf = 1.5707963267948966192;
  const double th = f * kPiHalf;  // in [-pi/4, pi/4]
  const double t2 = th * th;
  // sin(th) = th * S(th^2), Taylor through th^15 (next term < 5e-17
  // relative at th = pi/4).
  double sp = -7.6471637318198164759e-13;  // 1/15!
  sp = sp * t2 + 1.6059043836821614599e-10;  // 1/13!
  sp = sp * t2 - 2.5052108385441718775e-8;   // 1/11!
  sp = sp * t2 + 2.7557319223985892511e-6;   // 1/9!
  sp = sp * t2 - 1.9841269841269841253e-4;   // 1/7!
  sp = sp * t2 + 8.3333333333333332177e-3;   // 1/5!
  sp = sp * t2 - 1.6666666666666665741e-1;   // 1/3!
  sp = sp * t2 + 1.0;
  const double sv = th * sp;
  // cos(th) = C(th^2), Taylor through th^14 (next term < 2e-15
  // relative at th = pi/4).
  double cp = -1.1470745597729724714e-11;  // 1/14!
  cp = cp * t2 + 2.0876756987868098979e-9;   // 1/12!
  cp = cp * t2 - 2.7557319223985890653e-7;   // 1/10!
  cp = cp * t2 + 2.4801587301587301566e-5;   // 1/8!
  cp = cp * t2 - 1.3888888888888889419e-3;   // 1/6!
  cp = cp * t2 + 4.1666666666666664354e-2;   // 1/4!
  cp = cp * t2 - 5.0e-1;                     // 1/2!
  cp = cp * t2 + 1.0;
  const double cv = cp;
  // Quadrant fix-up: j odd swaps sin/cos; bit 1 of j (resp. of j+1)
  // flips the sign of sin (resp. cos). Integer masks, no branches.
  const std::uint64_t swap =
      0 - (static_cast<std::uint64_t>(j) & 1u);  // all-ones if j odd
  const std::uint64_t sb = std::bit_cast<std::uint64_t>(sv);
  const std::uint64_t cb = std::bit_cast<std::uint64_t>(cv);
  const std::uint64_t s_sel = (cb & swap) | (sb & ~swap);
  const std::uint64_t c_sel = (sb & swap) | (cb & ~swap);
  const std::uint64_t s_sign = (static_cast<std::uint64_t>(j) >> 1) << 63;
  const std::uint64_t c_sign = (static_cast<std::uint64_t>(j + 1) >> 1)
                               << 63;
  out_sin = std::bit_cast<double>(s_sel ^ s_sign);
  out_cos = std::bit_cast<double>(c_sel ^ c_sign);
}

/// sin(2*pi*turns) for any finite `turns`, deterministic across
/// platforms: the argument is reduced to [0, 1) with an exact
/// floor-subtract (both operations are correctly rounded, so the
/// reduction is bit-identical everywhere) and handed to det_sincos2pi.
/// Call sites express their phase in *turns* (cycles), which sidesteps
/// the classic libm pitfall of reducing an already-rounded 2*pi*x.
inline double det_sin2pi(double turns) {
  const double u = turns - std::floor(turns);
  double s, c;
  det_sincos2pi(u, s, c);
  return s;
}

}  // namespace gdelay::util
