// Compute backend for the block-processing engine.
//
// Every hot loop of the analog signal path — the det_tanh limiter stages,
// the one-pole/RC recursions, slew limiting, the Box-Muller noise
// transform, gain scaling — is a *kernel*: a function over sample arrays.
// The devices' lane passes call kernels instead of open-coding the loops.
// Two kinds:
//
//   * The serial recursions — one_pole, slew and vga_tail (the droop/slew
//     tail of the VGA stage). Each sample depends on the one before it,
//     so they are written once, as the plain functions declared below
//     (kernels_scalar.cpp, compiled with the default flags only), and
//     every machine runs the same loops.
//   * The elementwise kernels — scale, box_muller and tanh_stage. These
//     go through a `Kernels` table, and two tables ship:
//
//   scalar  Plain loops over the det_* functions of util/fastmath.h. The
//           default.
//   avx2    Explicit 4-lane AVX2 intrinsics, compiled only when the
//           toolchain supports -mavx2 and selected only when the CPU
//           reports AVX2+FMA. Each lane performs the identical sequence of
//           correctly-rounded IEEE-754 operations as the scalar loop, so
//           packing four samples changes nothing.
//
// Determinism contract (DESIGN.md "Compute backends" for the long form):
// every backend gives the same bytes, and those bytes do not depend on
// the thread count, on how a sample stream is split into calls, on the
// lane width or on the stream-to-lane assignment
// (tests/test_backend_equivalence.cpp, tests/test_block_kernels.cpp). The
// table is selected once per process (first use), via the GDELAY_BACKEND
// environment override ("scalar", "avx2", "auto") or programmatic
// select(); switching tables between runs is supported.
//
// gdelay-audit rule R7 keeps SIMD honest: intrinsics are only permitted
// under src/backend/, so vector code cannot leak into the model files.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "util/fastmath.h"

namespace gdelay::backend {

// ---------------------------------------------------------------------------
// Recursion state and coefficient PODs. They live here (not in the element
// classes) so the kernels can take them directly and clone() copies
// complete kernel state trivially.

/// One-pole low-pass state: y' = y + alpha * (x - y).
struct OnePoleState {
  double y = 0.0;  ///< filter output after the last emitted sample
};

/// Hoisted slew-limiter coefficients for one dt (see SlewRateLimiter).
struct SlewCoeffs {
  double max_step = 0.0;  ///< slew * dt
  double lin = 1.0;       ///< 1 - exp(-dt/tau_lin), 1 when disabled
  double leak = 0.0;      ///< 1 - exp(-dt/tau_leak), 0 when disabled
  bool has_lin = false;
  bool has_leak = false;
};

/// Slew-limiter recursion state.
struct SlewState {
  double y = 0.0;
  bool first = true;  ///< first sample snaps to the input (no startup ramp)
};

/// Hoisted coefficients of the VariableGainBuffer droop/slew tail for one
/// (Vctrl, dt) pair — pure functions of the config, Vctrl and dt.
struct VgaTailCoeffs {
  double amp = 0.0;           ///< A(Vctrl), half-swing before droop
  double amp_frac = 0.0;      ///< amp * droop_frac
  double droop_frac = 0.0;    ///< forms amp_frac for a per-sample amp
  double max_step = 0.0;      ///< slew * dt
  double inv_max_step = 0.0;  ///< 1/max_step (0 when max_step == 0)
  double alpha = 0.0;         ///< droop IIR coefficient for this dt
  SlewCoeffs slew;
};

/// Droop-feedback state of the VariableGainBuffer tail (the slew state
/// itself stays in the stage's SlewRateLimiter).
struct VgaTailState {
  double droop = 0.0;  ///< fraction of recent time spent slew-limited
  double prev = 0.0;   ///< previous slewed output (activity measure)
  bool first = true;
};

// ---------------------------------------------------------------------------
// Inline reference steps, one sample at a time: the loops of the
// recursion kernels below run them, and the tests use them as oracles.

inline double one_pole_step(double& y, double alpha, double x) {
  y += alpha * (x - y);
  return y;
}

inline double slew_step(const SlewCoeffs& c, SlewState& s, double vin) {
  if (s.first) {
    s.y = vin;
    s.first = false;
    return s.y;
  }
  const double err = vin - s.y;
  double want = err;
  if (c.has_lin) want *= c.lin;
  double dy = std::clamp(want, -c.max_step, c.max_step);
  if (c.has_leak) dy += err * c.leak;
  s.y += dy;
  return s.y;
}

/// One sample of the VariableGainBuffer droop/slew tail: `lim` is the
/// unit-amplitude limiter output det_tanh(g*x/ref); the return value is
/// the slewed output (before the output pole). `amp`/`amp_frac` are the
/// sample's A(Vctrl) and A(Vctrl) * droop_frac.
inline double vga_tail_step(const VgaTailCoeffs& c, double amp,
                            double amp_frac, SlewState& slew,
                            VgaTailState& d, double lim) {
  const double a = amp - amp_frac * d.droop;
  const double target = a * lim;
  const double slewed = slew_step(c.slew, slew, target);
  double activity = 0.0;
  if (!d.first && c.max_step > 0.0)
    activity = std::min(1.0, std::abs(slewed - d.prev) * c.inv_max_step);
  d.first = false;
  d.prev = slewed;
  d.droop += c.alpha * (activity - d.droop);
  return slewed;
}

/// vga_tail_step at the hoisted amplitude c.amp (fixed Vctrl).
inline double vga_tail_step(const VgaTailCoeffs& c, SlewState& slew,
                            VgaTailState& d, double lim) {
  return vga_tail_step(c, c.amp, c.amp_frac, slew, d, lim);
}

/// One Box-Muller pair from two uniforms, cos branch first — the draw
/// order Rng has always exposed. u1 in (0, 1], u2 in [0, 1).
inline void box_muller_step(double u1, double u2, double& out_cos,
                            double& out_sin) {
  const double r = std::sqrt(-2.0 * util::det_log(u1));
  double s, c;
  util::det_sincos2pi(u2, s, c);
  out_cos = r * c;
  out_sin = r * s;
}

// ---------------------------------------------------------------------------
// Width-generic kernels: `w` independent streams interleaved time-major,
// buf[i*w + s] = sample i of stream s; per-stream coefficients come as
// length-w arrays of values and per-stream state as length-w arrays of
// pointers into the devices. A device's solo block is the w == 1 call.
// Contract (enforced by tests/test_backend_equivalence.cpp): stream s's
// output is bit-identical to a w == 1 call over its de-interleaved samples
// with the same state — for any width, any stream-to-lane assignment and
// any partition of the sample stream into calls. All kernels allow
// in == out (in-place); other overlap is not allowed. `n` may be zero.
//
// The serial recursions stay serial in time; a w > 1 call steps a group
// of up to four streams per time index, so their independent chains
// overlap instead of running back to back.

/// One-pole recursion y' = y + alpha[s] * (x - y) per stream.
void one_pole(const double* x, double* out, std::size_t n, std::size_t w,
              const double* alpha, OnePoleState* const* st);

/// Slew-limiter recursion (see slew_step).
void slew(const double* x, double* out, std::size_t n, std::size_t w,
          const SlewCoeffs* c, SlewState* const* st);

/// VariableGainBuffer droop/slew tail (see vga_tail_step). `amp` is the
/// interleaved per-sample A(Vctrl) of a modulated control voltage, or
/// nullptr to hold each stream's c[s]->amp for the whole block.
void vga_tail(const double* lim, const double* amp, double* out,
              std::size_t n, std::size_t w, const VgaTailCoeffs* c,
              SlewState* const* slew_st, VgaTailState* const* d);

// ---------------------------------------------------------------------------
// The table of the elementwise kernels, under the same aliasing rules;
// tanh_stage is width-generic as above.

struct Kernels {
  const char* name;  ///< "scalar" or "avx2" — the GDELAY_BACKEND token.
  const char* isa;   ///< instruction-set level, e.g. "generic", "avx2+fma"

  /// out[i] = g * x[i]. Takes no per-stream parameters, so a w-stream
  /// call is just the flat kernel over n*w samples.
  void (*scale)(const double* x, double* out, std::size_t n, double g);

  /// Box-Muller transform over pair arrays (see box_muller_step).
  void (*box_muller)(const double* u1, const double* u2, double* out_cos,
                     double* out_sin, std::size_t n);

  /// Width-generic: v = x (+ add, an interleaved buffer of the same
  /// shape, if non-null); out = post[s] * det_tanh(gain[s] * v / ref[s])
  /// — the shape of every limiter stage in the library.
  void (*tanh_stage)(const double* x, const double* add, double* out,
                     std::size_t n, std::size_t w, const double* gain,
                     const double* ref, const double* post);
};

// ---------------------------------------------------------------------------
// Dispatch.

/// The scalar table (always available).
const Kernels& scalar_kernels();

/// The AVX2 table, or nullptr when the binary was built without AVX2
/// support. Callers must additionally check cpu_supports_avx2() before
/// selecting it.
const Kernels* avx2_kernels();

/// True when the running CPU reports AVX2 + FMA.
bool cpu_supports_avx2();

/// The active kernel table. First call resolves the GDELAY_BACKEND
/// environment override ("scalar" | "avx2" | "auto"); absent or empty
/// picks the scalar table.
const Kernels& active();

/// Programmatic selection ("scalar", "avx2", "auto"). Throws
/// std::invalid_argument for unknown names and std::runtime_error when
/// the requested backend is not usable on this machine. Not safe while
/// other threads are inside process_block(); call between runs.
void select(const char* name);

/// Human-readable reason for the current selection (stamped into the
/// BENCH json "backend" object), e.g. "GDELAY_BACKEND=avx2",
/// "default: scalar oracle", "avx2 requested but CPU lacks AVX2".
const char* dispatch_reason();

/// Multi-line diagnostic listing every known backend with its
/// availability on this machine, followed by the active table and its
/// dispatch reason. Printed by `GDELAY_BACKEND=list` (to stderr, before
/// falling back to the scalar oracle) and by `gdelay_tool --backends`.
std::string list_backends();

}  // namespace gdelay::backend
