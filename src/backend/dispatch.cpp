// Backend selection: the GDELAY_BACKEND override and select().
//
// Policy (DESIGN.md "Compute backends"):
//   * Default is the scalar table. Both tables print the same bytes; the
//     default stays scalar until the end-to-end benchmark pins its output
//     digests on both backends, so that an `auto` default cannot skip
//     that check on AVX2 hosts.
//   * Both paths resolve a name through the one resolve() below.
//   * The environment override resolves lazily on first active() call
//     and NEVER throws: a misspelled or unsupported request falls back
//     to scalar with the reason recorded (benches stamp it into the
//     BENCH json, so a silent fallback is still a visible one).
//   * Programmatic select() DOES throw on unknown/unusable names — a
//     test or tool that asks for a backend by name wants that backend,
//     not a lookalike.
#include "backend/backend.h"

#include <atomic>
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

// The reasons one request path stamps, per outcome.
struct Reasons {
  const char* scalar;
  const char* avx2;
  const char* auto_avx2;
  const char* auto_scalar;
};

constexpr Reasons kEnvReasons{
    "GDELAY_BACKEND=scalar", "GDELAY_BACKEND=avx2",
    "GDELAY_BACKEND=auto: CPU supports AVX2",
    "GDELAY_BACKEND=auto: AVX2 unavailable; scalar"};
constexpr Reasons kSelectReasons{"select(scalar)", "select(avx2)",
                                 "select(auto): CPU supports AVX2",
                                 "select(auto): AVX2 unavailable; scalar"};

// The table `name` asks for. `kernels` is nullptr when the name is
// unknown (then `reason` is too) or is "avx2" on a build or CPU without
// the AVX2 table.
Resolution resolve(const char* name, const Reasons& why) {
  const Kernels* avx2 = avx2_kernels();
  if (std::strcmp(name, "scalar") == 0) return {&scalar_kernels(), why.scalar};
  if (std::strcmp(name, "avx2") == 0) return {avx2, why.avx2};
  if (std::strcmp(name, "auto") == 0)
    return avx2 != nullptr ? Resolution{avx2, why.auto_avx2}
                           : Resolution{&scalar_kernels(), why.auto_scalar};
  return {nullptr, nullptr};
}

// Process-wide active-backend slot. Mutable namespace-scope state is
// normally an R4 finding; this one is allowlisted (tools/audit options)
// because it is a write-once-then-read dispatch cache guarded by
// atomics: concurrent first readers race only to store the same value,
// and select() is documented as not callable while worker threads are
// inside process_block().
std::atomic<const Kernels*> g_active{nullptr};
std::atomic<const char*> g_reason{"unresolved"};

Resolution resolve_from_env() {
  // getenv is allowlisted for this file (audit R2): GDELAY_BACKEND is a
  // reproducibility-neutral performance knob — both backends give the
  // same bytes — mirroring how util/thread_pool owns GDELAY_THREADS.
  const char* env = std::getenv("GDELAY_BACKEND");
  if (env == nullptr || *env == '\0')
    return {&scalar_kernels(), "default: scalar oracle (GDELAY_BACKEND unset)"};
  const Resolution r = resolve(env, kEnvReasons);
  if (r.kernels != nullptr) return r;
  if (r.reason != nullptr)
    return {&scalar_kernels(),
            "GDELAY_BACKEND=avx2 but AVX2 unavailable; scalar"};
  return {&scalar_kernels(), "GDELAY_BACKEND unrecognized; scalar"};
}

}  // namespace

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
  const Resolution r = resolve(name, kSelectReasons);
  if (r.reason == nullptr)
    throw std::invalid_argument(std::string("backend: unknown name '") +
                                name + "'");
  if (r.kernels == nullptr)
    throw std::runtime_error(
        "backend: AVX2 table unavailable (not built for this platform, or "
        "CPU lacks AVX2)");
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
  const Kernels& k = active();
  std::string out = "compute backends:\n";
  out += "  scalar  isa=generic   available (reference oracle, default)\n";
  out += avx2_kernels() != nullptr
             ? "  avx2    isa=avx2      available\n"
             : "  avx2    isa=avx2      unavailable: not built for this "
               "platform, or CPU lacks AVX2\n";
  out += std::string("active: ") + k.name + " (" + dispatch_reason() + ")\n";
  return out;
}

}  // namespace gdelay::backend
