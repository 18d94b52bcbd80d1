// Internal: the scalar reference kernel functions, with linkage, so the
// AVX2 table can point at them for the kernels that stay serial (the
// slew and VGA-tail recursions have loop-carried nonlinear dependencies
// with no profitable 4-lane formulation — sharing the scalar definition,
// compiled WITHOUT -mavx2, keeps them trivially bit-identical across
// backends). Not part of the public backend API; include backend.h.
#pragma once

#include <cstddef>

#include "backend/backend.h"

namespace gdelay::backend::ref {

void scale(const double* x, double* out, std::size_t n, double g);
void tanh_stage(const double* x, const double* add, double* out,
                std::size_t n, double gain, double ref, double post);
void exp_block(const double* x, double* out, std::size_t n);
void sincos2pi_block(const double* u, double* out_sin, double* out_cos,
                     std::size_t n);
void box_muller(const double* u1, const double* u2, double* out_cos,
                double* out_sin, std::size_t n);
void one_pole(const double* x, double* out, std::size_t n, double alpha,
              OnePoleState& st);
void slew(const double* x, double* out, std::size_t n, const SlewCoeffs& c,
          SlewState& st);
void vga_tail(const double* lim, const double* amp, double* out,
              std::size_t n, const VgaTailCoeffs& c, SlewState& slew_st,
              VgaTailState& d);

// Lane-batched reference kernels: each stream is advanced loop-wise with
// the exact solo reference arithmetic, so batch-vs-solo byte identity on
// the scalar backend holds by construction.
void tanh_stage_batch(const double* x, const double* add, double* out,
                      std::size_t n, std::size_t w, const double* gain,
                      const double* ref, const double* post);
void one_pole_batch(const double* x, double* out, std::size_t n,
                    std::size_t w, const double* alpha,
                    OnePoleState* const* st);
void slew_batch(const double* x, double* out, std::size_t n, std::size_t w,
                const SlewCoeffs* const* c, SlewState* const* st);
void vga_tail_batch(const double* lim, double* out, std::size_t n,
                    std::size_t w, const VgaTailCoeffs* const* c,
                    SlewState* const* slew_st, VgaTailState* const* d);

}  // namespace gdelay::backend::ref
