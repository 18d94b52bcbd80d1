// Pluggable compute backend for the block-processing engine.
//
// Every hot loop of the analog signal path — the det_tanh limiter stages,
// the one-pole/RC recursions, slew limiting, the Box-Muller noise
// transform, gain scaling — is expressed as a *kernel*: a function over
// sample arrays. A `Kernels` table bundles one implementation of each
// kernel, and the devices' lane passes call through the active table
// instead of open-coding the loops. The stateful kernels are width-
// generic: one entry advances `w` streams interleaved time-major, and a
// device's solo process_block() is the w == 1 call, which each backend
// dispatches to its contiguous single-stream loop. Two tables ship today:
//
//   scalar  The reference oracle: plain serial loops over the inline
//           reference steps below, so the result of a sample stream does
//           not depend on how it is split into calls or lanes. This is
//           the default: simulation results never change because of the
//           machine they ran on.
//   avx2    Explicit 4-lane AVX2(+FMA) intrinsics, compiled only when the
//           toolchain supports -mavx2 and selected only when the CPU
//           reports AVX2. Elementwise kernels (tanh/exp/sincos2pi/
//           Box-Muller/scale) are BIT-EXACT to the scalar oracle: each
//           lane performs the identical sequence of correctly-rounded
//           IEEE-754 operations, so packing four samples changes nothing.
//           The slew and droop-tail recursions run four streams per
//           vector and are bit-exact too. The one-pole recursion is NOT:
//           it runs a group-of-4 parallel scan whose reassociated
//           rounding differs from the serial recursion by a few machine
//           epsilons of the signal amplitude (pinned at 16 eps * max|y|
//           by the equivalence suite; see the determinism contract below).
//
// Determinism contract (DESIGN.md "Compute backends" for the long form):
//   * Within one backend, results are bit-stable: across runs, across
//     GDELAY_THREADS values, across block partitions (any split of a
//     sample stream into calls yields identical bytes — the AVX2 scan
//     carries its group phase in OnePoleState so lane boundaries are
//     anchored to absolute sample indices, and partial groups are
//     emitted through lane-exact std::fma emulation of the vector
//     arithmetic), and across lane widths and stream-to-lane assignments.
//   * Across backends, every kernel but one_pole agrees bit-for-bit;
//     one_pole agrees within a documented tolerance (enforced by
//     tests/test_backend_equivalence.cpp).
//   * The backend is selected once per process (first use), via the
//     GDELAY_BACKEND environment override ("scalar", "avx2", "auto") or
//     programmatic select(). Switching backends between runs is
//     supported; switching in the middle of a filter's sample stream is
//     not (the scan state would be interpreted by different arithmetic).
//
// gdelay-audit rule R7 keeps SIMD honest: intrinsics are only permitted
// under src/backend/, so vector code cannot leak into the model files and
// silently fork the determinism story.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>

#include "util/fastmath.h"

namespace gdelay::backend {

// ---------------------------------------------------------------------------
// Kernel state and coefficient PODs. These live here (not in the element
// classes) because their layout is part of the backend contract: the AVX2
// scan needs group context the scalar recursion does not, and keeping the
// fields in one POD lets clone() copy complete kernel state trivially.

/// One-pole low-pass state: y' = y + alpha * (x - y).
/// `y` is the filter output after the last emitted sample — the only
/// field the scalar backend uses. The rest is the AVX2 scan's group
/// context: `phase` counts emitted lanes of the current 4-sample group
/// (anchored to the sample stream, not to call boundaries), `y0` is the
/// filter state at the group's entry, `a[]` holds the alpha*x values of
/// the lanes seen so far, and `alpha` detects coefficient changes (a dt
/// change re-anchors the group — deterministically, because a dt change
/// forces a call boundary at the same sample index in every partition).
struct OnePoleState {
  double y = 0.0;
  double y0 = 0.0;
  double a[4] = {0.0, 0.0, 0.0, 0.0};
  double alpha = 0.0;
  unsigned phase = 0;
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
// Inline reference steps — the scalar oracle, one sample at a time. The
// scalar kernel table loops over them, and the AVX2 kernels fall back to
// them for partial lane groups, so every backend shares one definition
// of each serial recursion.

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
// The pluggable kernel table. All kernels allow in == out (in-place);
// other overlap is not allowed. `n` may be zero.

struct Kernels {
  const char* name;  ///< "scalar" or "avx2" — the GDELAY_BACKEND token.
  const char* isa;   ///< instruction-set level, e.g. "generic", "avx2+fma"

  // Flat elementwise kernels. They take no per-stream parameters, so a
  // w-stream call is just the flat kernel over n*w samples.

  /// out[i] = g * x[i]
  void (*scale)(const double* x, double* out, std::size_t n, double g);

  /// out[i] = det_exp(x[i])
  void (*exp_block)(const double* x, double* out, std::size_t n);

  /// det_sincos2pi over u[i] in [0, 1).
  void (*sincos2pi_block)(const double* u, double* out_sin, double* out_cos,
                          std::size_t n);

  /// Box-Muller transform over pair arrays (see box_muller_step).
  void (*box_muller)(const double* u1, const double* u2, double* out_cos,
                     double* out_sin, std::size_t n);

  // -------------------------------------------------------------------------
  // Width-generic kernels: `w` independent streams interleaved time-major,
  // buf[i*w + s] = sample i of stream s; per-stream coefficients come as
  // length-w arrays of values and per-stream state as length-w arrays of
  // pointers into the devices. A device's solo block is the w == 1 call,
  // which every backend dispatches to its contiguous single-stream loop.
  // Contract (enforced by tests/test_backend_equivalence.cpp): stream s's
  // output is bit-identical to a w == 1 call of the SAME table over its
  // de-interleaved samples with the same state — for any width, any
  // stream-to-lane assignment and any partition of the sample stream into
  // calls. That is what speeds up the serial-by-contract recursions
  // (one-pole, slew, droop tail): they stay serial in time, but the AVX2
  // table runs 4 streams per vector and the scalar table steps a group of
  // up to 4 streams per time step, so their independent chains overlap
  // instead of running back to back.

  /// v = x (+ add, an interleaved buffer of the same shape, if non-null);
  /// out = post[s] * det_tanh(gain[s] * v / ref[s]) — the shape of every
  /// limiter stage in the library.
  void (*tanh_stage)(const double* x, const double* add, double* out,
                     std::size_t n, std::size_t w, const double* gain,
                     const double* ref, const double* post);

  /// One-pole recursion y' = y + alpha[s] * (x - y) per stream.
  void (*one_pole)(const double* x, double* out, std::size_t n, std::size_t w,
                   const double* alpha, OnePoleState* const* st);

  /// Slew-limiter recursion (see slew_step).
  void (*slew)(const double* x, double* out, std::size_t n, std::size_t w,
               const SlewCoeffs* c, SlewState* const* st);

  /// VariableGainBuffer droop/slew tail (see vga_tail_step). `amp` is the
  /// interleaved per-sample A(Vctrl) of a modulated control voltage, or
  /// nullptr to hold each stream's c[s]->amp for the whole block.
  void (*vga_tail)(const double* lim, const double* amp, double* out,
                   std::size_t n, std::size_t w, const VgaTailCoeffs* c,
                   SlewState* const* slew, VgaTailState* const* d);
};

// ---------------------------------------------------------------------------
// Dispatch.

/// The reference table (always available).
const Kernels& scalar_kernels();

/// The AVX2 table, or nullptr when the binary was built without AVX2
/// support. Callers must additionally check cpu_supports_avx2() before
/// selecting it.
const Kernels* avx2_kernels();

/// True when the running CPU reports AVX2 + FMA.
bool cpu_supports_avx2();

/// The active kernel table. First call resolves the GDELAY_BACKEND
/// environment override ("scalar" | "avx2" | "auto"); absent or empty
/// picks the scalar oracle — explicit opt-in is required to trade the
/// cross-backend byte-identity guarantee for SIMD throughput.
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
