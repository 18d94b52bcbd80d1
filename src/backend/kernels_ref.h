// Internal: the scalar tanh_stage loop shared by both kernel tables — the
// scalar table's solo and uniform-coefficient path, and the AVX2 table's
// w % 4 remainder streams. It advances one stream's strided column (stride
// w; 1 for a solo stream). Not part of the public backend API; include
// backend.h.
#pragma once

#include <cstddef>

#include "backend/backend.h"
#include "util/fastmath.h"

namespace gdelay::backend::ref {

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

}  // namespace
}  // namespace gdelay::backend::ref
