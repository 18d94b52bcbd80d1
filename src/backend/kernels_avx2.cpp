// AVX2 backend: explicit 4-lane intrinsics for the hot kernels.
//
// This is the ONLY translation unit in the tree compiled with
// -mavx2 -mfma (per-source-file flags in src/backend/CMakeLists.txt),
// and gdelay-audit rule R7 keeps it that way: intrinsics anywhere
// outside src/backend/ are a finding.
//
// Bit-exactness strategy, kernel by kernel:
//
//   scale / tanh_stage / exp_block / sincos2pi_block / box_muller
//     Elementwise. Each vector lane performs the IDENTICAL sequence of
//     correctly-rounded IEEE-754 operations as the scalar det_* code:
//     separate _mm256_mul_pd/_mm256_add_pd for every `p*t + c` step
//     (the scalar build uses -ffp-contract=off, so NO fmadd here),
//     _mm256_div_pd/_mm256_sqrt_pd (correctly rounded by the standard),
//     and AVX2 epi64 integer ops for the bit manipulation. Packing four
//     samples therefore changes nothing: these kernels are bit-exact
//     against the scalar oracle, enforced per-element by
//     tests/test_backend_equivalence.cpp.
//
//   one_pole
//     A linear recurrence y_i = beta*y_{i-1} + alpha*x_i cannot run
//     elementwise; this kernel uses a group-of-4 parallel scan
//     (shift-and-fma prefix within the group, beta-powers to propagate
//     the group-entry state) that REASSOCIATES the arithmetic — it is
//     covered by the documented determinism contract instead of bit
//     equality: bounded ULP drift vs. scalar, but bit-STABLE within the
//     backend across any partition of the sample stream into
//     process_block() calls. Partition invariance is engineered, not
//     lucky: the group phase is carried in OnePoleState (anchored to
//     absolute sample position since reset/alpha-change), and partial
//     groups at call boundaries are emitted through std::fma scalar
//     emulation of the exact vector lane arithmetic — including the
//     fma-with-zero operand shape of the shifted lanes, so even signed
//     zeros match the packed path.
//
//   Width-generic kernels (w interleaved streams, buf[i*w + s])
//     w == 1 is a device's solo block: the contiguous loops above, and
//     for slew / vga_tail — serial nonlinear recursions with no
//     profitable 4-lane form along time — the scalar table's ref::slew /
//     ref::vga_tail, compiled without -mavx2, so they stay trivially
//     bit-identical across backends. At w > 1 the recursions stay serial
//     IN TIME but run four independent STREAMS per vector iteration:
//     every lane performs the same correctly-rounded op chain as
//     slew_step / vga_tail_step (min/max operand order chosen so NaN and
//     signed-zero behavior matches std::clamp / std::min), and one_pole
//     emits exactly scan_lane()'s bits per stream, so each stream equals
//     its solo run at any call partition. Streams whose flags/phases
//     diverge within a 4-group, and the w%4 remainder, fall back to
//     per-stream scalar emulation of the same arithmetic.
#include "backend/kernels_ref.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>

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

// det_exp, four lanes.
inline __m256d v_det_exp(__m256d x) {
  const __m256d sign_mask = vset(-0.0);
  const __m256d sign = _mm256_and_pd(x, sign_mask);
  const __m256d ax = _mm256_andnot_pd(sign_mask, x);
  const __m256d axc = _mm256_min_pd(ax, vset(708.0));
  const __m256d xc = _mm256_or_pd(axc, sign);

  const __m256d kRound = vset(6755399441055744.0);
  const __m256d z = _mm256_mul_pd(xc, vset(1.4426950408889634074));
  const __m256d m = _mm256_add_pd(z, kRound);
  const __m256d kd = _mm256_sub_pd(m, kRound);
  // r = (xc - kd*ln2_hi) - kd*ln2_lo, each product and difference a
  // separate correctly-rounded op (no fma), as in the scalar build.
  const __m256d r = _mm256_sub_pd(
      _mm256_sub_pd(xc, _mm256_mul_pd(kd, vset(6.93147180369123816490e-1))),
      _mm256_mul_pd(kd, vset(1.90821492927058770002e-10)));

  __m256d p = vset(2.5052108385441718775e-8);
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(2.7557319223985890653e-7));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(2.7557319223985892511e-6));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(2.4801587301587301566e-5));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(1.9841269841269841253e-4));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(1.3888888888888889419e-3));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(8.3333333333333332177e-3));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(4.1666666666666664354e-2));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(1.6666666666666665741e-1));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(5.0e-1));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(1.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, r), vset(1.0));

  const __m256i ki = _mm256_sub_epi64(_mm256_castpd_si256(m),
                                      _mm256_castpd_si256(kRound));
  const __m256d scale = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(ki, _mm256_set1_epi64x(1023)), 52));
  return _mm256_mul_pd(scale, p);
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
// the same inline scalar kernels the oracle uses (still compiled with
// -ffp-contract=off here), so every element is bit-exact regardless of
// where the 4-lane boundary falls.

void k_scale(const double* x, double* out, std::size_t n, double g) {
  const __m256d gv = vset(g);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, _mm256_mul_pd(gv, _mm256_loadu_pd(x + i)));
  for (; i < n; ++i) out[i] = g * x[i];
}

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

void k_exp_block(const double* x, double* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4)
    _mm256_storeu_pd(out + i, v_det_exp(_mm256_loadu_pd(x + i)));
  for (; i < n; ++i) out[i] = util::det_exp(x[i]);
}

void k_sincos2pi_block(const double* u, double* out_sin, double* out_cos,
                       std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d s, c;
    v_det_sincos2pi(_mm256_loadu_pd(u + i), s, c);
    _mm256_storeu_pd(out_sin + i, s);
    _mm256_storeu_pd(out_cos + i, c);
  }
  for (; i < n; ++i) util::det_sincos2pi(u[i], out_sin[i], out_cos[i]);
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
// One-pole scan. Within a complete 4-sample group starting from state
// y0, with a_j = alpha*x_j and beta = 1 - alpha:
//
//   a  = [a0, a1, a2, a3]
//   t1 = fma(beta, [0, a0, a1, a2], a)          intra-group distance 1
//   t2 = fma(b2,   [0, 0, t1_0, t1_1], t1)      intra-group distance 2
//   y  = fma([beta, b2, b3, b4], y0, t2)        propagate entry state
//
// which expands per lane to the exact linear recurrence, reassociated
// (b2 = beta*beta, b3 = b2*beta, b4 = b2*b2). scan_lane() below is the
// std::fma transcription of one lane — INCLUDING the fma-with-zero of
// the shifted-in lanes, whose +0.0 product can flip the sign of a zero
// result — used for partial groups at call boundaries and tails, so an
// 11/5-sample split emits the same bits as one 16-sample call.

struct ScanCoeffs {
  double beta, b2, b3, b4;
};

inline ScanCoeffs scan_coeffs(double alpha) {
  const double beta = 1.0 - alpha;
  const double b2 = beta * beta;
  return {beta, b2, b2 * beta, b2 * b2};
}

inline double scan_lane(const OnePoleState& st, const ScanCoeffs& c,
                        unsigned j) {
  const double* a = st.a;
  const double t1_0 = std::fma(c.beta, 0.0, a[0]);
  if (j == 0) return std::fma(c.beta, st.y0, std::fma(c.b2, 0.0, t1_0));
  const double t1_1 = std::fma(c.beta, a[0], a[1]);
  if (j == 1) return std::fma(c.b2, st.y0, std::fma(c.b2, 0.0, t1_1));
  if (j == 2) {
    const double t1_2 = std::fma(c.beta, a[1], a[2]);
    return std::fma(c.b3, st.y0, std::fma(c.b2, t1_0, t1_2));
  }
  const double t1_3 = std::fma(c.beta, a[2], a[3]);
  return std::fma(c.b4, st.y0, std::fma(c.b2, t1_1, t1_3));
}

void one_pole_solo(const double* x, double* out, std::size_t n, double alpha,
                   OnePoleState& st) {
  if (alpha != st.alpha) {
    // Coefficient change re-anchors the group at the current sample.
    // Deterministic across partitions: a dt change can only happen at a
    // process_block() boundary, and that boundary sits at the same
    // absolute sample index in every partition of the stream.
    st.alpha = alpha;
    st.phase = 0;
    st.y0 = st.y;
  }
  const ScanCoeffs c = scan_coeffs(alpha);
  std::size_t i = 0;

  // Resume a partial group left by a previous call.
  while (st.phase != 0 && i < n) {
    st.a[st.phase] = alpha * x[i];
    st.y = scan_lane(st, c, st.phase);
    out[i++] = st.y;
    if (++st.phase == 4) {
      st.phase = 0;
      st.y0 = st.y;
    }
  }

  // Packed groups.
  const __m256d alphav = vset(alpha);
  const __m256d betav = vset(c.beta);
  const __m256d b2v = vset(c.b2);
  const __m256d powv = _mm256_setr_pd(c.beta, c.b2, c.b3, c.b4);
  const __m256d zero = _mm256_setzero_pd();
  __m256d y0v = vset(st.y0);
  const std::size_t vec_start = i;
  for (; i + 4 <= n; i += 4) {
    const __m256d a = _mm256_mul_pd(alphav, _mm256_loadu_pd(x + i));
    // shift left by one lane: [0, a0, a1, a2]
    const __m256d sh1 = _mm256_blend_pd(
        _mm256_permute4x64_pd(a, _MM_SHUFFLE(2, 1, 0, 0)), zero, 0x1);
    const __m256d t1 = _mm256_fmadd_pd(betav, sh1, a);
    // shift left by two lanes: [0, 0, t1_0, t1_1]
    const __m256d sh2 = _mm256_blend_pd(
        _mm256_permute4x64_pd(t1, _MM_SHUFFLE(1, 0, 0, 0)), zero, 0x3);
    const __m256d t2 = _mm256_fmadd_pd(b2v, sh2, t1);
    const __m256d y = _mm256_fmadd_pd(powv, y0v, t2);
    _mm256_storeu_pd(out + i, y);
    y0v = _mm256_permute4x64_pd(y, _MM_SHUFFLE(3, 3, 3, 3));
  }
  if (i != vec_start) {
    st.y0 = _mm256_cvtsd_f64(y0v);
    st.y = st.y0;
  }

  // Tail: start a partial group, emitted lane-exactly.
  while (i < n) {
    st.a[st.phase] = alpha * x[i];
    st.y = scan_lane(st, c, st.phase);
    out[i++] = st.y;
    ++st.phase;  // n - i < 4 here, so phase never reaches 4
  }
}

// ---------------------------------------------------------------------------
// Width-generic table entries: `w` independent streams interleaved
// time-major. w == 1 runs the contiguous solo loop. Otherwise stream
// groups of 4 ride the vector lanes; the w%4 remainder (and any group
// whose per-stream flags diverge) drops to per-stream scalar loops over
// the identical arithmetic, so the lane contract — each stream
// bit-identical to its solo run on THIS table — holds for every width
// and every stream-to-lane assignment.

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

// One stream of the lane one-pole, advanced through scan_lane() on its
// strided column — byte-identical to one_pole_solo at any call
// partition (the solo resume/packed/tail paths all emit scan_lane bits).
// Caller has already re-anchored the state on alpha change.
inline void one_pole_column(const double* x, double* out, std::size_t n,
                                std::size_t w, double alpha,
                                OnePoleState& st) {
  const ScanCoeffs c = scan_coeffs(alpha);
  for (std::size_t i = 0; i < n; ++i) {
    st.a[st.phase] = alpha * x[i * w];
    st.y = scan_lane(st, c, st.phase);
    out[i * w] = st.y;
    if (++st.phase == 4) {
      st.phase = 0;
      st.y0 = st.y;
    }
  }
}

void k_one_pole(const double* x, double* out, std::size_t n, std::size_t w,
                const double* alpha, OnePoleState* const* st) {
  if (w == 1) return one_pole_solo(x, out, n, *alpha, **st);
  for (std::size_t s = 0; s < w; ++s) {
    OnePoleState& S = *st[s];
    if (alpha[s] != S.alpha) {
      S.alpha = alpha[s];
      S.phase = 0;
      S.y0 = S.y;
    }
  }
  std::size_t s0 = 0;
  for (; s0 + 4 <= w; s0 += 4) {
    const unsigned ph = st[s0]->phase;
    if (st[s0 + 1]->phase != ph || st[s0 + 2]->phase != ph ||
        st[s0 + 3]->phase != ph) {
      // Phases diverged (streams entered the batch mid-group at different
      // offsets); advance each stream alone — same bits, no lockstep.
      for (std::size_t l = 0; l < 4; ++l)
        one_pole_column(x + s0 + l, out + s0 + l, n, w, alpha[s0 + l],
                        *st[s0 + l]);
      continue;
    }
    // Each lane of the group advanced `len` samples from sample `i` alone
    // — the same scan_lane bits as the packed path.
    const auto lanes_alone = [&](std::size_t i, std::size_t len) {
      for (std::size_t l = 0; l < 4; ++l)
        one_pole_column(x + i * w + s0 + l, out + i * w + s0 + l, len, w,
                        alpha[s0 + l], *st[s0 + l]);
    };
    // Resume a partial group left by a previous call (shared phase).
    std::size_t i = ph == 0 ? 0 : std::min<std::size_t>(4 - ph, n);
    lanes_alone(0, i);
    if (st[s0]->phase != 0) continue;  // the call ended inside the group

    // Packed: 4 streams across the lanes, 4 time steps per iteration.
    // Per time step j this is scan_lane(j) with per-stream coefficients:
    //   t1_j = fma(beta, a_{j-1}, a_j)   (a_{-1} = 0)
    //   t2_j = fma(b2, t1_{j-2}, t1_j)   (t1_{<0} = 0)
    //   y_j  = fma(beta^{j+1}, y0, t2_j)
    const __m256d alphav = _mm256_loadu_pd(alpha + s0);
    const __m256d betav = _mm256_sub_pd(vset(1.0), alphav);
    const __m256d b2v = _mm256_mul_pd(betav, betav);
    const __m256d b3v = _mm256_mul_pd(b2v, betav);
    const __m256d b4v = _mm256_mul_pd(b2v, b2v);
    const __m256d zero = _mm256_setzero_pd();
    __m256d y0v = _mm256_setr_pd(st[s0]->y0, st[s0 + 1]->y0, st[s0 + 2]->y0,
                                 st[s0 + 3]->y0);
    const std::size_t vec_start = i;
    for (; i + 4 <= n; i += 4) {
      const double* r = x + i * w + s0;
      const __m256d a0 = _mm256_mul_pd(alphav, _mm256_loadu_pd(r));
      const __m256d a1 = _mm256_mul_pd(alphav, _mm256_loadu_pd(r + w));
      const __m256d a2 = _mm256_mul_pd(alphav, _mm256_loadu_pd(r + 2 * w));
      const __m256d a3 = _mm256_mul_pd(alphav, _mm256_loadu_pd(r + 3 * w));
      const __m256d t1_0 = _mm256_fmadd_pd(betav, zero, a0);
      const __m256d t1_1 = _mm256_fmadd_pd(betav, a0, a1);
      const __m256d t1_2 = _mm256_fmadd_pd(betav, a1, a2);
      const __m256d t1_3 = _mm256_fmadd_pd(betav, a2, a3);
      const __m256d t2_0 = _mm256_fmadd_pd(b2v, zero, t1_0);
      const __m256d t2_1 = _mm256_fmadd_pd(b2v, zero, t1_1);
      const __m256d t2_2 = _mm256_fmadd_pd(b2v, t1_0, t1_2);
      const __m256d t2_3 = _mm256_fmadd_pd(b2v, t1_1, t1_3);
      double* o = out + i * w + s0;
      _mm256_storeu_pd(o, _mm256_fmadd_pd(betav, y0v, t2_0));
      _mm256_storeu_pd(o + w, _mm256_fmadd_pd(b2v, y0v, t2_1));
      _mm256_storeu_pd(o + 2 * w, _mm256_fmadd_pd(b3v, y0v, t2_2));
      const __m256d ylast = _mm256_fmadd_pd(b4v, y0v, t2_3);
      _mm256_storeu_pd(o + 3 * w, ylast);
      y0v = ylast;
    }
    if (i != vec_start) {
      double ys[4];
      _mm256_storeu_pd(ys, y0v);
      for (int l = 0; l < 4; ++l) {
        st[s0 + l]->y0 = ys[l];
        st[s0 + l]->y = ys[l];
      }
    }
    // Tail: start a partial group (n - i < 4, phase is 0 here).
    lanes_alone(i, n - i);
  }
  for (; s0 < w; ++s0)
    one_pole_column(x + s0, out + s0, n, w, alpha[s0], *st[s0]);
}

void k_slew(const double* x, double* out, std::size_t n, std::size_t w,
            const SlewCoeffs* c, SlewState* const* st) {
  if (w == 1) return ref::slew(x, out, n, w, c, st);
  std::size_t s0 = 0;
  for (; s0 + 4 <= w; s0 += 4) {
    const bool has_lin = c[s0].has_lin;
    const bool has_leak = c[s0].has_leak;
    const bool first = st[s0]->first;
    bool uniform = true;
    for (int l = 1; l < 4; ++l)
      uniform = uniform && c[s0 + l].has_lin == has_lin &&
                c[s0 + l].has_leak == has_leak && st[s0 + l]->first == first;
    if (!uniform) {
      for (int l = 0; l < 4; ++l)
        ref::slew_column(x + s0 + l, out + s0 + l, n, w, c[s0 + l],
                         *st[s0 + l]);
      continue;
    }
    if (n == 0) continue;
    std::size_t i = 0;
    if (first) {
      // The first sample snaps to the input: the reference step per stream.
      for (std::size_t l = 0; l < 4; ++l)
        ref::slew_column(x + s0 + l, out + s0 + l, 1, w, c[s0 + l],
                         *st[s0 + l]);
      i = 1;
    }
    __m256d yv = _mm256_setr_pd(st[s0]->y, st[s0 + 1]->y, st[s0 + 2]->y,
                                st[s0 + 3]->y);
    const __m256d maxv =
        _mm256_setr_pd(c[s0].max_step, c[s0 + 1].max_step,
                       c[s0 + 2].max_step, c[s0 + 3].max_step);
    // Exact negation (sign-bit flip), matching the scalar -c.max_step.
    const __m256d negmaxv = _mm256_xor_pd(maxv, vset(-0.0));
    const __m256d linv = _mm256_setr_pd(c[s0].lin, c[s0 + 1].lin,
                                        c[s0 + 2].lin, c[s0 + 3].lin);
    const __m256d leakv = _mm256_setr_pd(c[s0].leak, c[s0 + 1].leak,
                                         c[s0 + 2].leak, c[s0 + 3].leak);
    for (; i < n; ++i) {
      const std::size_t o = i * w + s0;
      const __m256d vin = _mm256_loadu_pd(x + o);
      const __m256d err = _mm256_sub_pd(vin, yv);
      __m256d want = err;
      if (has_lin) want = _mm256_mul_pd(want, linv);
      // std::clamp(want, -max, max) as max(-max, min(max, want)): `want`
      // rides src2 of both min and max, so a NaN propagates through
      // unchanged exactly like the scalar comparisons leave it.
      __m256d dy = _mm256_max_pd(negmaxv, _mm256_min_pd(maxv, want));
      if (has_leak) dy = _mm256_add_pd(dy, _mm256_mul_pd(err, leakv));
      yv = _mm256_add_pd(yv, dy);
      _mm256_storeu_pd(out + o, yv);
    }
    double ys[4];
    _mm256_storeu_pd(ys, yv);
    for (int l = 0; l < 4; ++l) st[s0 + l]->y = ys[l];
  }
  for (; s0 < w; ++s0)
    ref::slew_column(x + s0, out + s0, n, w, c[s0], *st[s0]);
}

void k_vga_tail(const double* lim, const double* amp, double* out,
                std::size_t n, std::size_t w, const VgaTailCoeffs* c,
                SlewState* const* slew_st, VgaTailState* const* d) {
  if (w == 1) return ref::vga_tail(lim, amp, out, n, w, c, slew_st, d);
  // Stream s0 + l's column of the per-sample amplitude, if modulated.
  const auto amp_col = [amp](std::size_t s) {
    return amp != nullptr ? amp + s : nullptr;
  };
  std::size_t s0 = 0;
  for (; s0 + 4 <= w; s0 += 4) {
    const bool has_lin = c[s0].slew.has_lin;
    const bool has_leak = c[s0].slew.has_leak;
    const bool act = c[s0].max_step > 0.0;
    bool uniform = true;
    for (int l = 1; l < 4; ++l)
      uniform = uniform && c[s0 + l].slew.has_lin == has_lin &&
                c[s0 + l].slew.has_leak == has_leak &&
                (c[s0 + l].max_step > 0.0) == act &&
                slew_st[s0 + l]->first == slew_st[s0]->first &&
                d[s0 + l]->first == d[s0]->first;
    if (!uniform) {
      for (std::size_t l = 0; l < 4; ++l)
        ref::vga_tail_column(lim + s0 + l, amp_col(s0 + l), out + s0 + l, n,
                             w, c[s0 + l], *slew_st[s0 + l], *d[s0 + l]);
      continue;
    }
    if (n == 0) continue;
    std::size_t i = 0;
    if (slew_st[s0]->first || d[s0]->first) {
      // First sample has snap/startup special cases; take the reference
      // step per stream, then run the vector loop with both flags clear.
      for (std::size_t l = 0; l < 4; ++l)
        ref::vga_tail_column(lim + s0 + l, amp_col(s0 + l), out + s0 + l, 1,
                             w, c[s0 + l], *slew_st[s0 + l], *d[s0 + l]);
      i = 1;
      if (i >= n) continue;
    }
    const __m256d ampv = _mm256_setr_pd(c[s0].amp, c[s0 + 1].amp,
                                        c[s0 + 2].amp, c[s0 + 3].amp);
    const __m256d ampfv =
        _mm256_setr_pd(c[s0].amp_frac, c[s0 + 1].amp_frac,
                       c[s0 + 2].amp_frac, c[s0 + 3].amp_frac);
    const __m256d dfv =
        _mm256_setr_pd(c[s0].droop_frac, c[s0 + 1].droop_frac,
                       c[s0 + 2].droop_frac, c[s0 + 3].droop_frac);
    const __m256d alphav = _mm256_setr_pd(c[s0].alpha, c[s0 + 1].alpha,
                                          c[s0 + 2].alpha, c[s0 + 3].alpha);
    const __m256d invmsv =
        _mm256_setr_pd(c[s0].inv_max_step, c[s0 + 1].inv_max_step,
                       c[s0 + 2].inv_max_step, c[s0 + 3].inv_max_step);
    const __m256d maxv =
        _mm256_setr_pd(c[s0].slew.max_step, c[s0 + 1].slew.max_step,
                       c[s0 + 2].slew.max_step, c[s0 + 3].slew.max_step);
    const __m256d negmaxv = _mm256_xor_pd(maxv, vset(-0.0));
    const __m256d linv =
        _mm256_setr_pd(c[s0].slew.lin, c[s0 + 1].slew.lin,
                       c[s0 + 2].slew.lin, c[s0 + 3].slew.lin);
    const __m256d leakv =
        _mm256_setr_pd(c[s0].slew.leak, c[s0 + 1].slew.leak,
                       c[s0 + 2].slew.leak, c[s0 + 3].slew.leak);
    const __m256d onev = vset(1.0);
    const __m256d sign_mask = vset(-0.0);
    __m256d yv = _mm256_setr_pd(slew_st[s0]->y, slew_st[s0 + 1]->y,
                                slew_st[s0 + 2]->y, slew_st[s0 + 3]->y);
    __m256d droopv = _mm256_setr_pd(d[s0]->droop, d[s0 + 1]->droop,
                                    d[s0 + 2]->droop, d[s0 + 3]->droop);
    __m256d prevv = _mm256_setr_pd(d[s0]->prev, d[s0 + 1]->prev,
                                   d[s0 + 2]->prev, d[s0 + 3]->prev);
    // One loop per amplitude source, so the hot loop carries no test.
    const auto run = [&](auto modulated) {
      for (; i < n; ++i) {
        const std::size_t o = i * w + s0;
        const __m256d limv = _mm256_loadu_pd(lim + o);
        __m256d av = ampv, afv = ampfv;
        if constexpr (decltype(modulated)::value) {
          // Per-sample A(Vctrl): amp_frac = amp * droop_frac, as in the
          // scalar step.
          av = _mm256_loadu_pd(amp + o);
          afv = _mm256_mul_pd(av, dfv);
        }
        const __m256d a = _mm256_sub_pd(av, _mm256_mul_pd(afv, droopv));
        const __m256d target = _mm256_mul_pd(a, limv);
        // Embedded slew_step (first is false from here on).
        const __m256d err = _mm256_sub_pd(target, yv);
        __m256d want = err;
        if (has_lin) want = _mm256_mul_pd(want, linv);
        __m256d dy = _mm256_max_pd(negmaxv, _mm256_min_pd(maxv, want));
        if (has_leak) dy = _mm256_add_pd(dy, _mm256_mul_pd(err, leakv));
        yv = _mm256_add_pd(yv, dy);
        const __m256d slewed = yv;
        __m256d activity = _mm256_setzero_pd();
        if (act) {
          const __m256d ad =
              _mm256_andnot_pd(sign_mask, _mm256_sub_pd(slewed, prevv));
          // std::min(1.0, x): x rides src1, 1.0 src2, so a NaN activity
          // collapses to 1.0 exactly like the scalar comparison.
          activity = _mm256_min_pd(_mm256_mul_pd(ad, invmsv), onev);
        }
        prevv = slewed;
        droopv = _mm256_add_pd(
            droopv, _mm256_mul_pd(alphav, _mm256_sub_pd(activity, droopv)));
        _mm256_storeu_pd(out + o, slewed);
      }
    };
    if (amp != nullptr)
      run(std::true_type{});
    else
      run(std::false_type{});
    double tmp[4];
    _mm256_storeu_pd(tmp, yv);
    for (int l = 0; l < 4; ++l) slew_st[s0 + l]->y = tmp[l];
    _mm256_storeu_pd(tmp, droopv);
    for (int l = 0; l < 4; ++l) d[s0 + l]->droop = tmp[l];
    _mm256_storeu_pd(tmp, prevv);
    for (int l = 0; l < 4; ++l) {
      d[s0 + l]->prev = tmp[l];
      d[s0 + l]->first = false;
      slew_st[s0 + l]->first = false;
    }
  }
  for (; s0 < w; ++s0)
    ref::vga_tail_column(lim + s0, amp_col(s0), out + s0, n, w, c[s0],
                         *slew_st[s0], *d[s0]);
}

const Kernels kAvx2 = {
    /*name=*/"avx2",
    /*isa=*/"avx2+fma",
    k_scale,
    k_exp_block,
    k_sincos2pi_block,
    k_box_muller,
    k_tanh_stage,
    k_one_pole,
    k_slew,
    k_vga_tail,
};

}  // namespace

const Kernels* avx2_kernels() { return &kAvx2; }

}  // namespace gdelay::backend

#else  // !(__AVX2__ && __FMA__)

namespace gdelay::backend {

// Toolchain could not build the AVX2 table; dispatch falls back to the
// scalar oracle and reports why.
const Kernels* avx2_kernels() { return nullptr; }

}  // namespace gdelay::backend

#endif
