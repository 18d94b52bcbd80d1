// Backend selection: CPUID capability check + GDELAY_BACKEND override.
//
// Policy (DESIGN.md "Compute backends"):
//   * Default is the scalar table. Both tables print the same bytes; the
//     default stays scalar until the end-to-end benchmark pins its output
//     digests on both backends, so that an `auto` default cannot skip
//     that check on AVX2 hosts.
//   * The environment override resolves lazily on first active() call
//     and NEVER throws: a misspelled or unsupported request falls back
//     to scalar with the reason recorded (benches stamp it into the
//     BENCH json, so a silent fallback is still a visible one).
//   * Programmatic select() DOES throw on unknown/unusable names — a
//     test or tool that asks for a backend by name wants that backend,
//     not a lookalike.
#include "backend/backend.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace gdelay::backend {
namespace {

struct Resolution {
  const Kernels* kernels;
  const char* reason;
};

// Process-wide active-backend slot. Mutable namespace-scope state is
// normally an R4 finding; this one is allowlisted (tools/audit options)
// because it is a write-once-then-read dispatch cache guarded by
// atomics: concurrent first readers race only to store the same value,
// and select() is documented as not callable while worker threads are
// inside process_block().
std::atomic<const Kernels*> g_active{nullptr};
std::atomic<const char*> g_reason{"unresolved"};

// Availability listing WITHOUT consulting active(): resolve_from_env()
// prints this while resolution is in flight, so it must not recurse.
std::string describe_available() {
  std::string out = "compute backends:\n";
  out += "  scalar  isa=generic   available (reference oracle, default)\n";
  if (avx2_kernels() == nullptr)
    out += "  avx2    isa=avx2+fma  unavailable: binary built without AVX2\n";
  else if (!cpu_supports_avx2())
    out += "  avx2    isa=avx2+fma  unavailable: CPU lacks AVX2+FMA\n";
  else
    out += "  avx2    isa=avx2+fma  available\n";
  return out;
}

Resolution resolve_from_env() {
  // getenv is allowlisted for this file (audit R2): GDELAY_BACKEND is a
  // reproducibility-neutral performance knob — both backends give the
  // same bytes — mirroring how util/thread_pool owns GDELAY_THREADS.
  const char* env = std::getenv("GDELAY_BACKEND");
  if (env == nullptr || *env == '\0')
    return {&scalar_kernels(), "default: scalar oracle (GDELAY_BACKEND unset)"};
  if (std::strcmp(env, "scalar") == 0)
    return {&scalar_kernels(), "GDELAY_BACKEND=scalar"};
  if (std::strcmp(env, "avx2") == 0) {
    if (avx2_kernels() == nullptr)
      return {&scalar_kernels(),
              "GDELAY_BACKEND=avx2 but binary built without AVX2; scalar"};
    if (!cpu_supports_avx2())
      return {&scalar_kernels(),
              "GDELAY_BACKEND=avx2 but CPU lacks AVX2+FMA; scalar"};
    return {avx2_kernels(), "GDELAY_BACKEND=avx2"};
  }
  if (std::strcmp(env, "auto") == 0) {
    if (avx2_kernels() != nullptr && cpu_supports_avx2())
      return {avx2_kernels(), "GDELAY_BACKEND=auto: CPU supports AVX2+FMA"};
    return {&scalar_kernels(), "GDELAY_BACKEND=auto: AVX2 unavailable; scalar"};
  }
  if (std::strcmp(env, "list") == 0) {
    // Diagnostic mode: print the availability listing once (resolution
    // runs once per process) and continue on the scalar oracle so the
    // program still behaves deterministically.
    std::fputs(describe_available().c_str(), stderr);
    return {&scalar_kernels(), "GDELAY_BACKEND=list: diagnostic; scalar"};
  }
  return {&scalar_kernels(), "GDELAY_BACKEND unrecognized; scalar"};
}

}  // namespace

bool cpu_supports_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const Kernels& active() {
  const Kernels* k = g_active.load(std::memory_order_acquire);
  if (k == nullptr) {
    const Resolution r = resolve_from_env();
    // First resolver wins; every concurrent racer computes the same
    // Resolution (environment and CPUID are stable), so the exchange
    // order is unobservable.
    const Kernels* expected = nullptr;
    if (g_active.compare_exchange_strong(expected, r.kernels,
                                         std::memory_order_acq_rel)) {
      g_reason.store(r.reason, std::memory_order_release);
      k = r.kernels;
    } else {
      k = expected;
    }
  }
  return *k;
}

void select(const char* name) {
  if (name == nullptr) throw std::invalid_argument("backend: null name");
  Resolution r{nullptr, nullptr};
  if (std::strcmp(name, "scalar") == 0) {
    r = {&scalar_kernels(), "select(scalar)"};
  } else if (std::strcmp(name, "avx2") == 0) {
    if (avx2_kernels() == nullptr)
      throw std::runtime_error("backend: binary built without AVX2 support");
    if (!cpu_supports_avx2())
      throw std::runtime_error("backend: CPU does not support AVX2+FMA");
    r = {avx2_kernels(), "select(avx2)"};
  } else if (std::strcmp(name, "auto") == 0) {
    r = (avx2_kernels() != nullptr && cpu_supports_avx2())
            ? Resolution{avx2_kernels(), "select(auto): CPU supports AVX2+FMA"}
            : Resolution{&scalar_kernels(),
                         "select(auto): AVX2 unavailable; scalar"};
  } else {
    throw std::invalid_argument(std::string("backend: unknown name '") +
                                name + "'");
  }
  // select() is an explicit, documented re-selection API (tests and the
  // CLI switch backends between runs while the engine is quiescent), so
  // it intentionally overwrites the otherwise write-once lazily-claimed
  // state published by active(); a CAS here would wrongly pin the first
  // selection forever.
  // gdelay-audit: allow(R10) deliberate quiescent-state re-selection, not a racy init path
  g_active.store(r.kernels, std::memory_order_release);
  // gdelay-audit: allow(R10) paired with the g_active re-selection store above
  g_reason.store(r.reason, std::memory_order_release);
}

const char* dispatch_reason() {
  // Make sure lazy resolution has happened so the reason is meaningful.
  (void)active();
  return g_reason.load(std::memory_order_acquire);
}

std::string list_backends() {
  std::string out = describe_available();
  const Kernels& k = active();
  out += std::string("active: ") + k.name + " (" + dispatch_reason() + ")\n";
  return out;
}

}  // namespace gdelay::backend
