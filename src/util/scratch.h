// Thread-local scratch buffers for the block-processing engine.
//
// The stage-major analog paths need short-lived intermediate sample
// buffers (one block each for noise, fan-out taps, differential legs...).
// Allocating them per process() call would put a malloc on the hottest
// loop in the library, so leases come from a per-thread free list that
// retains capacity: after warm-up, block processing performs no heap
// allocation. Thread-local storage keeps the pool safe under the
// calibration sweeps' work pool without any locking.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gdelay::util {

/// RAII lease of a `double` buffer from the calling thread's pool.
/// Contents are unspecified on acquisition. A pooled buffer only ever
/// grows, so leasing it at a different length (a lane pass's n * w after
/// a solo pass's n) never re-initializes its elements.
class ScratchBuffer {
 public:
  explicit ScratchBuffer(std::size_t n) : v_(acquire()), n_(n) {
    if (v_.size() < n) v_.resize(n);
  }
  ~ScratchBuffer() { release(std::move(v_)); }

  ScratchBuffer(const ScratchBuffer&) = delete;
  ScratchBuffer& operator=(const ScratchBuffer&) = delete;

  double* data() { return v_.data(); }
  const double* data() const { return v_.data(); }
  std::size_t size() const { return n_; }
  double operator[](std::size_t i) const { return v_[i]; }
  double& operator[](std::size_t i) { return v_[i]; }

 private:
  static std::vector<std::vector<double>>& pool() {
    thread_local std::vector<std::vector<double>> p;
    return p;
  }
  static std::vector<double> acquire() {
    auto& p = pool();
    if (p.empty()) return {};
    std::vector<double> v = std::move(p.back());
    p.pop_back();
    return v;
  }
  static void release(std::vector<double> v) {
    pool().push_back(std::move(v));
  }

  std::vector<double> v_;
  std::size_t n_;
};

}  // namespace gdelay::util
