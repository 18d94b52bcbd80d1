// Scalar reference backend: the byte-identity oracle.
//
// Every kernel is a plain loop over the inline reference steps from
// backend.h (or the det_* functions directly), one sample after another
// in stream order, so any split of a stream into calls yields the same
// bytes. A w-stream call walks each stream's strided column with the
// arithmetic of the w == 1 call, so per-stream output is byte-identical
// to the solo run by construction — for any width and lane assignment;
// w == 1 runs the same loops with a literal unit stride. This file is
// compiled with the project's default flags only (no -mavx2), and the
// global -ffp-contract=off keeps the compiler from fusing any
// multiply-add, so the oracle's bit patterns are the portable IEEE-754
// ones regardless of the toolchain's vectorizer mood.
#include "backend/kernels_ref.h"

namespace gdelay::backend {
namespace {

void scale(const double* x, double* out, std::size_t n, double g) {
  for (std::size_t i = 0; i < n; ++i) out[i] = g * x[i];
}

void exp_block(const double* x, double* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = util::det_exp(x[i]);
}

void sincos2pi_block(const double* u, double* out_sin, double* out_cos,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    util::det_sincos2pi(u[i], out_sin[i], out_cos[i]);
}

void box_muller(const double* u1, const double* u2, double* out_cos,
                double* out_sin, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    box_muller_step(u1[i], u2[i], out_cos[i], out_sin[i]);
}

void tanh_stage(const double* x, const double* add, double* out,
                std::size_t n, std::size_t w, const double* gain,
                const double* ref, const double* post) {
  if (w == 1) return ref::tanh_column(x, add, out, n, 1, *gain, *ref, *post);
  for (std::size_t s = 0; s < w; ++s)
    ref::tanh_column(x + s, add != nullptr ? add + s : nullptr, out + s, n, w,
                     gain[s], ref[s], post[s]);
}

// The serial recursion, enregistered. Only `y` is live for the scalar
// backend; the AVX2 scan context in `st` stays untouched (it is
// re-anchored by the AVX2 kernel itself on alpha change).
inline void one_pole_column(const double* x, double* out, std::size_t n,
                            std::size_t stride, double alpha,
                            OnePoleState& st) {
  double y = st.y;
  for (std::size_t i = 0; i < n; ++i) {
    y += alpha * (x[i * stride] - y);
    out[i * stride] = y;
  }
  st.y = y;
}

void one_pole(const double* x, double* out, std::size_t n, std::size_t w,
              const double* alpha, OnePoleState* const* st) {
  if (w == 1) return one_pole_column(x, out, n, 1, *alpha, **st);
  for (std::size_t s = 0; s < w; ++s)
    one_pole_column(x + s, out + s, n, w, alpha[s], *st[s]);
}

}  // namespace

namespace ref {

void slew(const double* x, double* out, std::size_t n, std::size_t w,
          const SlewCoeffs* c, SlewState* const* st) {
  if (w == 1) return slew_column(x, out, n, 1, *c, **st);
  for (std::size_t s = 0; s < w; ++s)
    slew_column(x + s, out + s, n, w, c[s], *st[s]);
}

void vga_tail(const double* lim, const double* amp, double* out,
              std::size_t n, std::size_t w, const VgaTailCoeffs* c,
              SlewState* const* slew_st, VgaTailState* const* d) {
  if (w == 1) return vga_tail_column(lim, amp, out, n, 1, *c, **slew_st, **d);
  for (std::size_t s = 0; s < w; ++s)
    vga_tail_column(lim + s, amp != nullptr ? amp + s : nullptr, out + s, n,
                    w, c[s], *slew_st[s], *d[s]);
}

}  // namespace ref

namespace {

const Kernels kScalar = {
    /*name=*/"scalar",
    /*isa=*/"generic",
    scale,
    exp_block,
    sincos2pi_block,
    box_muller,
    tanh_stage,
    one_pole,
    ref::slew,
    ref::vga_tail,
};

}  // namespace

const Kernels& scalar_kernels() { return kScalar; }

}  // namespace gdelay::backend
