// Scalar reference backend: the byte-identity oracle.
//
// Every kernel is a plain loop over the inline reference steps from
// backend.h (or the det_* functions directly), one sample after another
// in stream order, so any split of a stream into calls yields the same
// bytes. This file is compiled with the project's default flags only
// (no -mavx2), and the global -ffp-contract=off keeps the compiler from
// fusing any multiply-add, so the oracle's bit patterns are the portable
// IEEE-754 ones regardless of the toolchain's vectorizer mood.
#include "backend/kernels_ref.h"

#include "util/fastmath.h"

namespace gdelay::backend {
namespace ref {

void scale(const double* x, double* out, std::size_t n, double g) {
  for (std::size_t i = 0; i < n; ++i) out[i] = g * x[i];
}

void tanh_stage(const double* x, const double* add, double* out,
                std::size_t n, double gain, double ref, double post) {
  // Split on `add` outside the loop; the expression shape matches every
  // call site: TanhLimiter's vsat*det_tanh(gain*v/vsat), the buffers'
  // post*det_tanh(output_gain*(x+noise)/output_ref).
  if (add != nullptr) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = post * util::det_tanh(gain * (x[i] + add[i]) / ref);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = post * util::det_tanh(gain * x[i] / ref);
  }
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

void one_pole(const double* x, double* out, std::size_t n, double alpha,
              OnePoleState& st) {
  // The serial recursion, enregistered. Only `y` is live for the scalar
  // backend; the AVX2 scan context in `st` stays untouched (it is
  // re-anchored by the AVX2 kernel itself on alpha change).
  double y = st.y;
  for (std::size_t i = 0; i < n; ++i) {
    y += alpha * (x[i] - y);
    out[i] = y;
  }
  st.y = y;
}

void slew(const double* x, double* out, std::size_t n, const SlewCoeffs& c,
          SlewState& st) {
  SlewState s = st;
  for (std::size_t i = 0; i < n; ++i) out[i] = slew_step(c, s, x[i]);
  st = s;
}

void vga_tail(const double* lim, const double* amp, double* out,
              std::size_t n, const VgaTailCoeffs& c, SlewState& slew_st,
              VgaTailState& d) {
  SlewState s = slew_st;
  VgaTailState dd = d;
  if (amp == nullptr) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = vga_tail_step(c, s, dd, lim[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = vga_tail_step(c, amp[i], amp[i] * c.droop_frac, s, dd, lim[i]);
  }
  slew_st = s;
  d = dd;
}

// ---------------------------------------------------------------------------
// Lane-batched kernels over `w` interleaved streams (buf[i*w + s]). Each
// stream is walked stream-major with the solo reference arithmetic on its
// strided column, so per-stream output is byte-identical to the solo
// kernel by construction — for any width and any lane assignment.

void tanh_stage_batch(const double* x, const double* add, double* out,
                      std::size_t n, std::size_t w, const double* gain,
                      const double* ref, const double* post) {
  if (add != nullptr) {
    for (std::size_t s = 0; s < w; ++s) {
      const double g = gain[s], r = ref[s], p = post[s];
      for (std::size_t i = 0; i < n; ++i)
        out[i * w + s] = p * util::det_tanh(g * (x[i * w + s] + add[i * w + s]) / r);
    }
  } else {
    for (std::size_t s = 0; s < w; ++s) {
      const double g = gain[s], r = ref[s], p = post[s];
      for (std::size_t i = 0; i < n; ++i)
        out[i * w + s] = p * util::det_tanh(g * x[i * w + s] / r);
    }
  }
}

void one_pole_batch(const double* x, double* out, std::size_t n,
                    std::size_t w, const double* alpha,
                    OnePoleState* const* st) {
  for (std::size_t s = 0; s < w; ++s) {
    double y = st[s]->y;
    const double a = alpha[s];
    for (std::size_t i = 0; i < n; ++i) {
      y += a * (x[i * w + s] - y);
      out[i * w + s] = y;
    }
    st[s]->y = y;
  }
}

void slew_batch(const double* x, double* out, std::size_t n, std::size_t w,
                const SlewCoeffs* const* c, SlewState* const* st) {
  for (std::size_t s = 0; s < w; ++s) {
    SlewState loc = *st[s];
    for (std::size_t i = 0; i < n; ++i)
      out[i * w + s] = slew_step(*c[s], loc, x[i * w + s]);
    *st[s] = loc;
  }
}

void vga_tail_batch(const double* lim, double* out, std::size_t n,
                    std::size_t w, const VgaTailCoeffs* const* c,
                    SlewState* const* slew_st, VgaTailState* const* d) {
  for (std::size_t s = 0; s < w; ++s) {
    SlewState sl = *slew_st[s];
    VgaTailState dd = *d[s];
    for (std::size_t i = 0; i < n; ++i)
      out[i * w + s] = vga_tail_step(*c[s], sl, dd, lim[i * w + s]);
    *slew_st[s] = sl;
    *d[s] = dd;
  }
}

}  // namespace ref

namespace {

const Kernels kScalar = {
    /*name=*/"scalar",
    /*isa=*/"generic",
    /*lanes=*/1,
    /*bit_exact=*/true,
    ref::scale,
    ref::tanh_stage,
    ref::exp_block,
    ref::sincos2pi_block,
    ref::box_muller,
    ref::one_pole,
    ref::slew,
    ref::vga_tail,
    ref::tanh_stage_batch,
    ref::one_pole_batch,
    ref::slew_batch,
    ref::vga_tail_batch,
};

}  // namespace

const Kernels& scalar_kernels() { return kScalar; }

}  // namespace gdelay::backend
