// The scalar kernel table and the serial recursions.
//
// Every kernel is a plain loop over the inline reference steps from
// backend.h (or the det_* functions directly), one sample after another
// in stream order, so any split of a stream into calls yields the same
// bytes. A w-stream call of a recursion advances its streams together, a
// group of up to four at each time step, with each stream's state in
// locals: the group's independent serial recursions overlap in the
// pipeline instead of running back to back. Each stream still sees
// exactly the arithmetic of the w == 1 call, so per-stream output is
// byte-identical to the solo run by construction — for any width and
// lane assignment. w == 1 runs the contiguous solo loops. This file is
// compiled with the project's default flags only (no -mavx2), and the
// global -ffp-contract=off keeps the compiler from fusing any
// multiply-add, so the bit patterns are the portable IEEE-754 ones
// regardless of the toolchain's vectorizer mood.
#include <bit>
#include <cstdint>
#include <type_traits>

#include "backend/kernels_ref.h"

namespace gdelay::backend {
namespace {

void scale(const double* x, double* out, std::size_t n, double g) {
  for (std::size_t i = 0; i < n; ++i) out[i] = g * x[i];
}

void box_muller(const double* u1, const double* u2, double* out_cos,
                double* out_sin, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    box_muller_step(u1[i], u2[i], out_cos[i], out_sin[i]);
}

// Runs `group(G, s0)` over streams [s0, s0 + G) for consecutive groups
// covering all w streams. G is a compile-time width of at most four, so
// with the group's stream loop unrolled its state arrays stay in
// registers (without the unroll pragma GCC -O2 keeps them on the stack).
template <typename Group>
void stream_groups(std::size_t w, Group group) {
  constexpr std::size_t kGroup = 4;
  std::size_t s0 = 0;
  for (; s0 + kGroup <= w; s0 += kGroup)
    group(std::integral_constant<std::size_t, kGroup>{}, s0);
  switch (w - s0) {
    case 3: return group(std::integral_constant<std::size_t, 3>{}, s0);
    case 2: return group(std::integral_constant<std::size_t, 2>{}, s0);
    case 1: return group(std::integral_constant<std::size_t, 1>{}, s0);
    default: return;
  }
}

// True when every stream's value has stream 0's bit pattern (== would
// let -0.0 stand in for +0.0).
bool uniform(const double* v, std::size_t w) {
  const auto b0 = std::bit_cast<std::uint64_t>(v[0]);
  for (std::size_t s = 1; s < w; ++s)
    if (std::bit_cast<std::uint64_t>(v[s]) != b0) return false;
  return true;
}

void tanh_stage(const double* x, const double* add, double* out,
                std::size_t n, std::size_t w, const double* gain,
                const double* ref, const double* post) {
  // Elementwise: with one coefficient set (every calibration clone of a
  // device) the interleaved block is one contiguous solo run.
  if (w == 1 || (uniform(gain, w) && uniform(ref, w) && uniform(post, w)))
    return ref::tanh_column(x, add, out, n * w, 1, *gain, *ref, *post);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t s = 0; s < w; ++s) {
      const std::size_t j = i * w + s;
      const double v = add != nullptr ? x[j] + add[j] : x[j];
      out[j] = post[s] * util::det_tanh(gain[s] * v / ref[s]);
    }
  }
}

// The solo loops, enregistered.

void one_pole_column(const double* x, double* out, std::size_t n,
                     double alpha, OnePoleState& st) {
  double y = st.y;
  for (std::size_t i = 0; i < n; ++i) out[i] = one_pole_step(y, alpha, x[i]);
  st.y = y;
}

void slew_column(const double* x, double* out, std::size_t n,
                 const SlewCoeffs& c, SlewState& st) {
  SlewState s = st;
  for (std::size_t i = 0; i < n; ++i) out[i] = slew_step(c, s, x[i]);
  st = s;
}

/// `amp` is the per-sample A(Vctrl), or nullptr for c.amp.
void vga_tail_column(const double* lim, const double* amp, double* out,
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

}  // namespace

void one_pole(const double* x, double* out, std::size_t n, std::size_t w,
              const double* alpha, OnePoleState* const* st) {
  if (w == 1) return one_pole_column(x, out, n, *alpha, **st);
  stream_groups(w, [&](auto g, std::size_t s0) {
    constexpr std::size_t G = decltype(g)::value;
    double y[G], a[G];
    for (std::size_t s = 0; s < G; ++s) {
      y[s] = st[s0 + s]->y;
      a[s] = alpha[s0 + s];
    }
    for (std::size_t i = 0; i < n; ++i)
#pragma GCC unroll 4
      for (std::size_t s = 0; s < G; ++s)
        out[i * w + s0 + s] = one_pole_step(y[s], a[s], x[i * w + s0 + s]);
    for (std::size_t s = 0; s < G; ++s) st[s0 + s]->y = y[s];
  });
}

void slew(const double* x, double* out, std::size_t n, std::size_t w,
          const SlewCoeffs* c, SlewState* const* st) {
  if (w == 1) return slew_column(x, out, n, *c, **st);
  stream_groups(w, [&](auto g, std::size_t s0) {
    constexpr std::size_t G = decltype(g)::value;
    SlewCoeffs cc[G];
    SlewState ss[G];
    for (std::size_t s = 0; s < G; ++s) {
      cc[s] = c[s0 + s];
      ss[s] = *st[s0 + s];
    }
    for (std::size_t i = 0; i < n; ++i)
#pragma GCC unroll 4
      for (std::size_t s = 0; s < G; ++s)
        out[i * w + s0 + s] = slew_step(cc[s], ss[s], x[i * w + s0 + s]);
    for (std::size_t s = 0; s < G; ++s) *st[s0 + s] = ss[s];
  });
}

void vga_tail(const double* lim, const double* amp, double* out,
              std::size_t n, std::size_t w, const VgaTailCoeffs* c,
              SlewState* const* slew_st, VgaTailState* const* d) {
  if (w == 1) return vga_tail_column(lim, amp, out, n, *c, **slew_st, **d);
  stream_groups(w, [&](auto g, std::size_t s0) {
    constexpr std::size_t G = decltype(g)::value;
    VgaTailCoeffs cc[G];
    SlewState ss[G];
    VgaTailState dd[G];
    for (std::size_t s = 0; s < G; ++s) {
      cc[s] = c[s0 + s];
      ss[s] = *slew_st[s0 + s];
      dd[s] = *d[s0 + s];
    }
    for (std::size_t i = 0; i < n; ++i) {
#pragma GCC unroll 4
      for (std::size_t s = 0; s < G; ++s) {
        const std::size_t j = i * w + s0 + s;
        out[j] = amp == nullptr
                     ? vga_tail_step(cc[s], ss[s], dd[s], lim[j])
                     : vga_tail_step(cc[s], amp[j], amp[j] * cc[s].droop_frac,
                                     ss[s], dd[s], lim[j]);
      }
    }
    for (std::size_t s = 0; s < G; ++s) {
      *slew_st[s0 + s] = ss[s];
      *d[s0 + s] = dd[s];
    }
  });
}

namespace {

const Kernels kScalar = {
    /*name=*/"scalar",
    /*isa=*/"generic",
    scale,
    box_muller,
    tanh_stage,
};

}  // namespace

const Kernels& scalar_kernels() { return kScalar; }

}  // namespace gdelay::backend
