// AVX2 kernel table: explicit 4-lane intrinsics for the elementwise
// kernels (tanh_stage, box_muller).
//
// This is the ONLY translation unit in the tree compiled with
// -mavx2 -mfma (per-source-file flags in src/backend/CMakeLists.txt),
// and gdelay-audit rule R7 keeps it that way: intrinsics anywhere
// outside src/backend/ are a finding.
//
// Each vector lane performs the IDENTICAL sequence of correctly-rounded
// IEEE-754 operations as the scalar det_* code: separate
// _mm256_mul_pd/_mm256_add_pd for every `p*t + c` step (the scalar build
// uses -ffp-contract=off, so NO fmadd here), _mm256_div_pd/_mm256_sqrt_pd
// (correctly rounded by the standard), and AVX2 epi64 integer ops for the
// bit manipulation. Packing four samples therefore changes nothing: the
// table is bit-exact against the scalar one, enforced per element by
// tests/test_backend_equivalence.cpp. tanh_stage packs the samples of a
// solo stream, or four streams of a w-stream call per vector; the w % 4
// remainder streams run the scalar column loop. The serial recursions
// are not in the table: every backend runs the one definition in
// kernels_scalar.cpp.
#include "backend/kernels_ref.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <bit>
#include <cstdint>

#include "util/fastmath.h"

namespace gdelay::backend {
namespace {

inline __m256d vset(double v) { return _mm256_set1_pd(v); }

// ---------------------------------------------------------------------------
// Lane transcriptions of util/fastmath.h. Every operation below mirrors
// one line of the scalar kernel; comments reference the scalar names.

// det_tanh, four lanes.
inline __m256d v_det_tanh(__m256d x) {
  const __m256d sign_mask = vset(-0.0);
  const __m256d sign = _mm256_and_pd(x, sign_mask);
  const __m256d ax = _mm256_andnot_pd(sign_mask, x);
  // Saturation at 20.0: minpd returns the second operand when the first
  // is NaN, so NaN/inf lanes clamp to 20 exactly like the scalar
  // integer mask-select does (NaN abs bits compare above kBits20).
  const __m256d xc = _mm256_min_pd(ax, vset(20.0));

  const __m256d kRound = vset(6755399441055744.0);  // 1.5 * 2^52
  const __m256d z = _mm256_mul_pd(xc, vset(2.0 * 1.4426950408889634074));
  const __m256d m = _mm256_add_pd(z, kRound);
  const __m256d kd = _mm256_sub_pd(m, kRound);
  const __m256d t =
      _mm256_mul_pd(_mm256_sub_pd(z, kd), vset(0.6931471805599453094));

  // e^t - 1 Taylor through t^11 — separate mul/add, never fmadd, to
  // match the -ffp-contract=off scalar oracle bit for bit.
  __m256d p = vset(2.5052108385441718775e-8);
  p = _mm256_add_pd(_mm256_mul_pd(p, t), vset(2.7557319223985890653e-7));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), vset(2.7557319223985892511e-6));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), vset(2.4801587301587301566e-5));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), vset(1.9841269841269841253e-4));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), vset(1.3888888888888889419e-3));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), vset(8.3333333333333332177e-3));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), vset(4.1666666666666664354e-2));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), vset(1.6666666666666665741e-1));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), vset(5.0e-1));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), vset(1.0));
  const __m256d em1r = _mm256_mul_pd(p, t);

  // 2^k via the exponent field: ki from the magic-rounded bit patterns.
  const __m256i ki = _mm256_sub_epi64(_mm256_castpd_si256(m),
                                      _mm256_castpd_si256(kRound));
  const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(ki, _mm256_set1_epi64x(1023)), 52));

  const __m256d em1 = _mm256_add_pd(_mm256_mul_pd(scale, em1r),
                                    _mm256_sub_pd(scale, vset(1.0)));
  const __m256d pos = _mm256_div_pd(em1, _mm256_add_pd(em1, vset(2.0)));
  return _mm256_or_pd(pos, sign);
}

// det_log, four lanes. Same domain as the scalar kernel: normal
// positive x (Box-Muller u1 in [2^-53, 1]).
inline __m256d v_det_log(__m256d x) {
  const __m256i bits = _mm256_castpd_si256(x);
  const __m256i kMant = _mm256_set1_epi64x(0x000fffffffffffffLL);
  const __m256i kOne = _mm256_set1_epi64x(0x3ff0000000000000LL);
  __m256i man_bits = _mm256_or_si256(_mm256_and_si256(bits, kMant), kOne);
  // ge = 1 when m >= sqrt(2): top bit of (kBitsSqrt2 - 1 - man_bits),
  // exactly the scalar's branch-free unsigned compare.
  const __m256i ge = _mm256_srli_epi64(
      _mm256_sub_epi64(_mm256_set1_epi64x(0x3ff6a09e667f3bcdLL - 1),
                       man_bits),
      63);
  man_bits = _mm256_sub_epi64(man_bits, _mm256_slli_epi64(ge, 52));
  const __m256d m = _mm256_castsi256_pd(man_bits);

  // Exponent to double via the inverse magic-rounding trick.
  const __m256i e_i = _mm256_add_epi64(
      _mm256_sub_epi64(_mm256_srli_epi64(bits, 52),
                       _mm256_set1_epi64x(1023)),
      ge);
  constexpr double kRound = 6755399441055744.0;
  const __m256d e = _mm256_sub_pd(
      _mm256_castsi256_pd(_mm256_add_epi64(
          _mm256_set1_epi64x(std::bit_cast<std::int64_t>(kRound)), e_i)),
      vset(kRound));

  const __m256d s = _mm256_div_pd(_mm256_sub_pd(m, vset(1.0)),
                                  _mm256_add_pd(m, vset(1.0)));
  const __m256d w = _mm256_mul_pd(s, s);
  __m256d q = vset(1.0526315789473684211e-1);
  q = _mm256_add_pd(_mm256_mul_pd(q, w), vset(1.1764705882352941176e-1));
  q = _mm256_add_pd(_mm256_mul_pd(q, w), vset(1.3333333333333333333e-1));
  q = _mm256_add_pd(_mm256_mul_pd(q, w), vset(1.5384615384615384615e-1));
  q = _mm256_add_pd(_mm256_mul_pd(q, w), vset(1.8181818181818181818e-1));
  q = _mm256_add_pd(_mm256_mul_pd(q, w), vset(2.2222222222222222222e-1));
  q = _mm256_add_pd(_mm256_mul_pd(q, w), vset(2.8571428571428571429e-1));
  q = _mm256_add_pd(_mm256_mul_pd(q, w), vset(4.0e-1));
  q = _mm256_add_pd(_mm256_mul_pd(q, w), vset(6.6666666666666666667e-1));
  q = _mm256_add_pd(_mm256_mul_pd(q, w), vset(2.0));
  return _mm256_add_pd(_mm256_mul_pd(e, vset(0.6931471805599453094)),
                       _mm256_mul_pd(s, q));
}

// det_sincos2pi, four lanes.
inline void v_det_sincos2pi(__m256d u, __m256d& out_sin, __m256d& out_cos) {
  const __m256d kRound = vset(6755399441055744.0);
  const __m256d z4 = _mm256_mul_pd(vset(4.0), u);  // exact
  const __m256d m4 = _mm256_add_pd(z4, kRound);
  const __m256i j = _mm256_sub_epi64(_mm256_castpd_si256(m4),
                                     _mm256_castpd_si256(kRound));
  const __m256d f = _mm256_sub_pd(z4, _mm256_sub_pd(m4, kRound));
  const __m256d th = _mm256_mul_pd(f, vset(1.5707963267948966192));
  const __m256d t2 = _mm256_mul_pd(th, th);

  __m256d sp = vset(-7.6471637318198164759e-13);
  sp = _mm256_add_pd(_mm256_mul_pd(sp, t2), vset(1.6059043836821614599e-10));
  sp = _mm256_add_pd(_mm256_mul_pd(sp, t2), vset(-2.5052108385441718775e-8));
  sp = _mm256_add_pd(_mm256_mul_pd(sp, t2), vset(2.7557319223985892511e-6));
  sp = _mm256_add_pd(_mm256_mul_pd(sp, t2), vset(-1.9841269841269841253e-4));
  sp = _mm256_add_pd(_mm256_mul_pd(sp, t2), vset(8.3333333333333332177e-3));
  sp = _mm256_add_pd(_mm256_mul_pd(sp, t2), vset(-1.6666666666666665741e-1));
  sp = _mm256_add_pd(_mm256_mul_pd(sp, t2), vset(1.0));
  const __m256d sv = _mm256_mul_pd(th, sp);

  __m256d cp = vset(-1.1470745597729724714e-11);
  cp = _mm256_add_pd(_mm256_mul_pd(cp, t2), vset(2.0876756987868098979e-9));
  cp = _mm256_add_pd(_mm256_mul_pd(cp, t2), vset(-2.7557319223985890653e-7));
  cp = _mm256_add_pd(_mm256_mul_pd(cp, t2), vset(2.4801587301587301566e-5));
  cp = _mm256_add_pd(_mm256_mul_pd(cp, t2), vset(-1.3888888888888889419e-3));
  cp = _mm256_add_pd(_mm256_mul_pd(cp, t2), vset(4.1666666666666664354e-2));
  cp = _mm256_add_pd(_mm256_mul_pd(cp, t2), vset(-5.0e-1));
  cp = _mm256_add_pd(_mm256_mul_pd(cp, t2), vset(1.0));
  const __m256d cv = cp;

  // Quadrant fix-up — the scalar's integer mask selects, lane-wise.
  const __m256i swap =
      _mm256_sub_epi64(_mm256_setzero_si256(),
                       _mm256_and_si256(j, _mm256_set1_epi64x(1)));
  const __m256i sb = _mm256_castpd_si256(sv);
  const __m256i cb = _mm256_castpd_si256(cv);
  const __m256i s_sel = _mm256_or_si256(_mm256_and_si256(cb, swap),
                                        _mm256_andnot_si256(swap, sb));
  const __m256i c_sel = _mm256_or_si256(_mm256_and_si256(sb, swap),
                                        _mm256_andnot_si256(swap, cb));
  const __m256i s_sign = _mm256_slli_epi64(_mm256_srli_epi64(j, 1), 63);
  const __m256i c_sign = _mm256_slli_epi64(
      _mm256_srli_epi64(_mm256_add_epi64(j, _mm256_set1_epi64x(1)), 1), 63);
  out_sin = _mm256_castsi256_pd(_mm256_xor_si256(s_sel, s_sign));
  out_cos = _mm256_castsi256_pd(_mm256_xor_si256(c_sel, c_sign));
}

// ---------------------------------------------------------------------------
// Elementwise kernels: vector body + scalar det_* tail. The tail calls
// the same inline scalar kernels the scalar table uses (still compiled with
// -ffp-contract=off here), so every element is bit-exact regardless of
// where the 4-lane boundary falls.

void tanh_solo(const double* x, const double* add, double* out,
               std::size_t n, double gain, double ref, double post) {
  const __m256d gv = vset(gain);
  const __m256d rv = vset(ref);
  const __m256d pv = vset(post);
  std::size_t i = 0;
  if (add != nullptr) {
    for (; i + 4 <= n; i += 4) {
      const __m256d v =
          _mm256_add_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(add + i));
      const __m256d arg = _mm256_div_pd(_mm256_mul_pd(gv, v), rv);
      _mm256_storeu_pd(out + i, _mm256_mul_pd(pv, v_det_tanh(arg)));
    }
    for (; i < n; ++i)
      out[i] = post * util::det_tanh(gain * (x[i] + add[i]) / ref);
  } else {
    for (; i + 4 <= n; i += 4) {
      const __m256d v = _mm256_loadu_pd(x + i);
      const __m256d arg = _mm256_div_pd(_mm256_mul_pd(gv, v), rv);
      _mm256_storeu_pd(out + i, _mm256_mul_pd(pv, v_det_tanh(arg)));
    }
    for (; i < n; ++i) out[i] = post * util::det_tanh(gain * x[i] / ref);
  }
}

void k_box_muller(const double* u1, const double* u2, double* out_cos,
                  double* out_sin, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d r = _mm256_sqrt_pd(
        _mm256_mul_pd(vset(-2.0), v_det_log(_mm256_loadu_pd(u1 + i))));
    __m256d s, c;
    v_det_sincos2pi(_mm256_loadu_pd(u2 + i), s, c);
    _mm256_storeu_pd(out_cos + i, _mm256_mul_pd(r, c));
    _mm256_storeu_pd(out_sin + i, _mm256_mul_pd(r, s));
  }
  for (; i < n; ++i) box_muller_step(u1[i], u2[i], out_cos[i], out_sin[i]);
}

// ---------------------------------------------------------------------------
// tanh_stage over `w` streams interleaved time-major. w == 1 runs the
// contiguous solo loop; otherwise stream groups of 4 ride the vector
// lanes and the w % 4 remainder runs the scalar column loop, so each
// stream is bit-identical to its solo run for every width and every
// stream-to-lane assignment.

void k_tanh_stage(const double* x, const double* add, double* out,
                  std::size_t n, std::size_t w, const double* gain,
                  const double* ref, const double* post) {
  if (w == 1) return tanh_solo(x, add, out, n, *gain, *ref, *post);
  std::size_t s0 = 0;
  for (; s0 + 4 <= w; s0 += 4) {
    const __m256d gv = _mm256_loadu_pd(gain + s0);
    const __m256d rv = _mm256_loadu_pd(ref + s0);
    const __m256d pv = _mm256_loadu_pd(post + s0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t o = i * w + s0;
      __m256d v = _mm256_loadu_pd(x + o);
      if (add != nullptr) v = _mm256_add_pd(v, _mm256_loadu_pd(add + o));
      const __m256d arg = _mm256_div_pd(_mm256_mul_pd(gv, v), rv);
      _mm256_storeu_pd(out + o, _mm256_mul_pd(pv, v_det_tanh(arg)));
    }
  }
  for (; s0 < w; ++s0)
    ref::tanh_column(x + s0, add != nullptr ? add + s0 : nullptr, out + s0, n,
                     w, gain[s0], ref[s0], post[s0]);
}

const Kernels kAvx2 = {
    /*name=*/"avx2",
    /*isa=*/"avx2+fma",
    k_box_muller,
    k_tanh_stage,
};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2; }

}  // namespace gdelay::backend

#else  // !(__AVX2__ && __FMA__)

namespace gdelay::backend {

// Toolchain could not build the AVX2 table; dispatch falls back to the
// scalar table and reports why.
const Kernels* avx2_kernels() { return nullptr; }

}  // namespace gdelay::backend

#endif
