// Both kernel tables and the serial recursions, from one source.
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
// lane assignment. w == 1 runs the contiguous solo loops.
//
// The AVX2 table is the two elementwise loops compiled a second time:
// its entry points carry [[gnu::target("avx2"), gnu::flatten]] and only
// call the generic box_muller and tanh_stage, so the compiler inlines
// those loops into them and vectorizes them four doubles wide. Nothing
// else here is compiled for AVX2, so no shared inline function gets an
// AVX2 copy that the linker could hand to the scalar table. The det_*
// functions are branch-free IEEE-754 add/mul/div/sqrt and integer bit
// operations, which round the same packed or not, and the global
// -ffp-contract=off keeps the compiler from fusing any multiply-add, so
// both tables give the same bytes (tests/test_backend_equivalence.cpp).
#include <bit>
#include <cstdint>
#include <type_traits>

#include "backend/backend.h"
#include "util/fastmath.h"

namespace gdelay::backend {
namespace {

void box_muller(const double* u1, const double* u2, double* out_cos,
                double* out_sin, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    box_muller_step(u1[i], u2[i], out_cos[i], out_sin[i]);
}

// One contiguous run under one coefficient set. Split on `add` outside
// the loop; the expression shape matches every call site: TanhLimiter's
// vsat*det_tanh(gain*v/vsat), the buffers'
// post*det_tanh(output_gain*(x+noise)/output_ref).
void tanh_solo(const double* x, const double* add, double* out,
               std::size_t n, double gain, double ref, double post) {
  if (add != nullptr) {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = post * util::det_tanh(gain * (x[i] + add[i]) / ref);
  } else {
    for (std::size_t i = 0; i < n; ++i)
      out[i] = post * util::det_tanh(gain * x[i] / ref);
  }
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
    return tanh_solo(x, add, out, n * w, *gain, *ref, *post);
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
    box_muller,
    tanh_stage,
};

}  // namespace

const Kernels& scalar_kernels() { return kScalar; }

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

namespace {

[[gnu::target("avx2"), gnu::flatten]] void box_muller_avx2(
    const double* u1, const double* u2, double* out_cos, double* out_sin,
    std::size_t n) {
  box_muller(u1, u2, out_cos, out_sin, n);
}

[[gnu::target("avx2"), gnu::flatten]] void tanh_stage_avx2(
    const double* x, const double* add, double* out, std::size_t n,
    std::size_t w, const double* gain, const double* ref,
    const double* post) {
  tanh_stage(x, add, out, n, w, gain, ref, post);
}

const Kernels kAvx2 = {
    /*name=*/"avx2",
    /*isa=*/"avx2",
    box_muller_avx2,
    tanh_stage_avx2,
};

}  // namespace

const Kernels* avx2_kernels() {
  return __builtin_cpu_supports("avx2") ? &kAvx2 : nullptr;
}

#else

// No AVX2 entry points for this platform or compiler.
const Kernels* avx2_kernels() { return nullptr; }

#endif

}  // namespace gdelay::backend
