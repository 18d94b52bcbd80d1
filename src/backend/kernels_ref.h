// Internal: the scalar reference loops shared by both kernel tables.
// The column loops advance one stream's strided column (stride w; 1 for a
// solo stream) through the reference arithmetic of backend.h. The scalar
// table runs them for its w == 1 calls only: at w > 1 it advances its
// streams together, a group at each time step. The AVX2 table uses them
// for the w % 4 remainder and for lane groups whose flags diverge, and its
// w == 1 slew and droop tail call ref::slew / ref::vga_tail themselves —
// the scalar definitions, compiled WITHOUT -mavx2 — so the serial solo
// recursions are trivially bit-identical across backends. Not part of the
// public backend API; include backend.h.
#pragma once

#include <cstddef>

#include "backend/backend.h"
#include "util/fastmath.h"

namespace gdelay::backend::ref {

void slew(const double* x, double* out, std::size_t n, std::size_t w,
          const SlewCoeffs* c, SlewState* const* st);
void vga_tail(const double* lim, const double* amp, double* out,
              std::size_t n, std::size_t w, const VgaTailCoeffs* c,
              SlewState* const* slew_st, VgaTailState* const* d);

// Internal linkage: each table's translation unit compiles its own copy
// with its own target flags, so the linker can never hand the scalar
// table a copy encoded for AVX2.
namespace {

// Split on `add` outside the loop; the expression shape matches every
// call site: TanhLimiter's vsat*det_tanh(gain*v/vsat), the buffers'
// post*det_tanh(output_gain*(x+noise)/output_ref).
inline void tanh_column(const double* x, const double* add, double* out,
                        std::size_t n, std::size_t stride, double gain,
                        double ref, double post) {
  if (add != nullptr) {
    for (std::size_t i = 0; i < n; ++i)
      out[i * stride] =
          post * util::det_tanh(gain * (x[i * stride] + add[i * stride]) / ref);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      out[i * stride] = post * util::det_tanh(gain * x[i * stride] / ref);
  }
}

inline void slew_column(const double* x, double* out, std::size_t n,
                        std::size_t stride, const SlewCoeffs& c,
                        SlewState& st) {
  SlewState s = st;
  for (std::size_t i = 0; i < n; ++i)
    out[i * stride] = slew_step(c, s, x[i * stride]);
  st = s;
}

/// `amp` (same stride) is the per-sample A(Vctrl), or nullptr for c.amp.
inline void vga_tail_column(const double* lim, const double* amp, double* out,
                            std::size_t n, std::size_t stride,
                            const VgaTailCoeffs& c, SlewState& slew_st,
                            VgaTailState& d) {
  SlewState s = slew_st;
  VgaTailState dd = d;
  if (amp == nullptr) {
    for (std::size_t i = 0; i < n; ++i)
      out[i * stride] = vga_tail_step(c, s, dd, lim[i * stride]);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double a = amp[i * stride];
      out[i * stride] =
          vga_tail_step(c, a, a * c.droop_frac, s, dd, lim[i * stride]);
    }
  }
  slew_st = s;
  d = dd;
}

}  // namespace
}  // namespace gdelay::backend::ref
