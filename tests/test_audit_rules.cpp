// Unit coverage for the gdelay-audit rule engine (tools/audit). Each rule
// R1-R12 gets a violating, a clean, and a waived case (plus a baseline
// suppression where the rule is new); the cross-TU tests drive
// build_index/scan_files directly to prove the two-pass index resolves
// symbols across files. The final tests self-scan the live src/ tree —
// once bare (R12 skipped) and once with the tests/ corpus registered so
// the coverage rule runs — which is the same check `ctest -R Audit` and
// the CI gate run via the CLI.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit.h"
#include "sarif.h"

namespace {

using gdelay::audit::build_index;
using gdelay::audit::Finding;
using gdelay::audit::Options;
using gdelay::audit::scan_files;
using gdelay::audit::scan_source;
using gdelay::audit::ScanStats;
using gdelay::audit::SourceFile;

std::vector<std::string> rules_of(const std::vector<Finding>& fs) {
  std::vector<std::string> out;
  for (const auto& f : fs) out.push_back(f.rule);
  return out;
}

std::string render(const std::vector<Finding>& fs) {
  std::string out;
  for (const auto& f : fs) out += gdelay::audit::format(f) + "\n";
  return out;
}

// --------------------------------------------------------------------------
// R1 — no direct libm transcendentals
// --------------------------------------------------------------------------

TEST(AuditR1, FlagsDirectLibmCall) {
  auto fs = scan_source("analog/x.cpp",
                        "double f(double v) { return std::tanh(v); }");
  ASSERT_EQ(fs.size(), 1u) << render(fs);
  EXPECT_EQ(fs[0].rule, "R1");
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_NE(fs[0].message.find("det_tanh"), std::string::npos);
}

TEST(AuditR1, FlagsUnqualifiedCallToo) {
  auto fs = scan_source("core/x.cpp", "double f(double v) { return exp(v); }");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R1"}) << render(fs);
}

TEST(AuditR1, CleanOnDeterministicKernelsAndMemberCalls) {
  auto fs = scan_source("analog/x.cpp",
                        "double f(double v) { return util::det_tanh(v); }\n"
                        "double g(Obj& o) { return o.exp(2.0); }\n"
                        "double h(Obj* o) { return o->log(2.0); }\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR1, FastmathHeaderIsExempt) {
  auto fs = scan_source("util/fastmath.h",
                        "double ref(double v) { return std::tanh(v); }");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR1, InlineWaiverSilencesWithReason) {
  auto fs = scan_source(
      "measure/x.cpp",
      "// gdelay-audit: allow(R1) analysis-side readout, not signal path\n"
      "double f(double y, double x) { return std::atan2(y, x); }\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR1, WaiverCoversNextCodeLineAcrossCommentBlock) {
  // A waiver whose reason wraps onto a second comment line still covers
  // the first code line after the comment block.
  auto fs = scan_source(
      "measure/x.cpp",
      "// gdelay-audit: allow(R1) analysis-side readout whose reason is\n"
      "// long enough to wrap onto a second comment line\n"
      "double f(double y, double x) { return std::atan2(y, x); }\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

// --------------------------------------------------------------------------
// R2 — no nondeterminism sources
// --------------------------------------------------------------------------

TEST(AuditR2, FlagsRandomDeviceAndRand) {
  auto fs = scan_source("util/x.cpp",
                        "int a() { std::random_device rd; return rd(); }\n"
                        "int b() { return std::rand(); }\n"
                        "long c() { return time(nullptr); }\n");
  auto rules = rules_of(fs);
  ASSERT_EQ(rules, (std::vector<std::string>{"R2", "R2", "R2"})) << render(fs);
}

TEST(AuditR2, FlagsWallClockReads) {
  auto fs = scan_source(
      "core/x.cpp", "auto t = std::chrono::steady_clock::now();");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R2"}) << render(fs);
}

TEST(AuditR2, CleanOnSeededRng) {
  auto fs = scan_source("core/x.cpp",
                        "double f(util::Rng& rng) { return rng.gauss(); }");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR2, GetenvAllowedOnlyInDesignatedOwners) {
  // thread_pool owns GDELAY_THREADS and backend/dispatch owns
  // GDELAY_BACKEND; everything else must take configuration explicitly.
  const std::string src = "const char* f() { return std::getenv(\"X\"); }";
  EXPECT_TRUE(scan_source("util/thread_pool.cpp", src).empty());
  EXPECT_TRUE(scan_source("backend/dispatch.cpp", src).empty());
  auto fs = scan_source("core/x.cpp", src);
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R2"}) << render(fs);
}

TEST(AuditR2, CampaignPathsAreNotEnvExempt) {
  // The campaign takes its mode and shard count from the CampaignSpec
  // alone: an env read anywhere under campaign/ could make a resume or a
  // merge depend on the host.
  const std::string src = "const char* f() { return std::getenv(\"X\"); }";
  for (const char* label : {"campaign/campaign.cpp", "campaign/campaign.h",
                            "campaign/checkpoint.cpp", "campaign/config.cpp"}) {
    auto fs = scan_source(label, src);
    ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R2"})
        << label << "\n"
        << render(fs);
  }
}

TEST(AuditR2, InlineWaiverSilences) {
  auto fs = scan_source(
      "util/x.cpp",
      "int b() { return std::rand(); }  // gdelay-audit: allow(R2) probe\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

// --------------------------------------------------------------------------
// R3 — noise-stream forking
// --------------------------------------------------------------------------

TEST(AuditR3, FlagsRngMemberWithoutForkNoise) {
  auto fs = scan_source("fast/x.h",
                        "class Holder {\n"
                        " public:\n"
                        "  double sample();\n"
                        " private:\n"
                        "  util::Rng rng_;\n"
                        "};\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R3"}) << render(fs);
  EXPECT_NE(fs[0].message.find("fork_noise"), std::string::npos);
}

TEST(AuditR3, CleanOnCompleteElement) {
  // A device holding a noise stream that it can fork.
  auto fs = scan_source(
      "analog/x.h",
      "class Complete {\n"
      " public:\n"
      "  void process_block(const double* in, double* out, std::size_t n,\n"
      "                     double dt_ps);\n"
      "  void fork_noise(std::uint64_t stream) { rng_ = rng_.fork(stream); }\n"
      " private:\n"
      "  util::Rng rng_{42};\n"
      "};\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR3, UnrelatedClassesAreIgnored) {
  auto fs = scan_source("measure/x.h",
                        "class Meter : public Instrument {\n"
                        " public:\n"
                        "  double step(double v, double dt);\n"
                        "};\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR3, InlineWaiverSilences) {
  auto fs = scan_source(
      "analog/x.h",
      "class Holder {\n"
      " private:\n"
      "  // gdelay-audit: allow(R3) one stream by design, never copied\n"
      "  util::Rng rng_;\n"
      "};\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

// --------------------------------------------------------------------------
// R4 — no mutable namespace-scope state
// --------------------------------------------------------------------------

TEST(AuditR4, FlagsMutableGlobals) {
  auto fs = scan_source("util/x.cpp",
                        "namespace gdelay {\n"
                        "int g_counter = 0;\n"
                        "static double g_scale{1.0};\n"
                        "}\n");
  ASSERT_EQ(rules_of(fs), (std::vector<std::string>{"R4", "R4"}))
      << render(fs);
}

TEST(AuditR4, CleanOnConstantsDeclarationsAndLocals) {
  auto fs = scan_source(
      "util/x.cpp",
      "namespace gdelay {\n"
      "constexpr double kPi = 3.14159265358979323846;\n"
      "const int kLanes = 4;\n"
      "inline constexpr int kBits{8};\n"
      "class Fwd;\n"
      "using Row = std::vector<double>;\n"
      "double free_fn(double x);\n"
      "double with_local(double x) { double acc = x; return acc; }\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR4, InlineWaiverSilences) {
  auto fs = scan_source(
      "util/x.cpp",
      "// gdelay-audit: allow(R4) guarded by pool mutex, test-only knob\n"
      "int g_hook_count = 0;\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR4, BackendDispatchAllowedOtherPathsAreNot) {
  // backend/dispatch holds the write-once active kernel table; no other
  // file gets that exemption, including the rest of backend/.
  const std::string src = "namespace gdelay {\nint g_state = 0;\n}\n";
  EXPECT_TRUE(scan_source("backend/dispatch.cpp", src).empty());
  for (const char* label :
       {"backend/kernels_scalar.cpp", "campaign/campaign.cpp"}) {
    auto fs = scan_source(label, src);
    ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R4"})
        << label << "\n"
        << render(fs);
  }
}

// --------------------------------------------------------------------------
// R5 — no float in the analog path
// --------------------------------------------------------------------------

TEST(AuditR5, FlagsFloatTypeAndLiteral) {
  auto fs = scan_source("analog/x.cpp",
                        "double f() { float v = 0.5f; return v; }");
  ASSERT_EQ(rules_of(fs), (std::vector<std::string>{"R5", "R5"}))
      << render(fs);
}

TEST(AuditR5, CleanOutsideAnalogPathAndOnDoubles) {
  // measure/ is not part of the analog path, and hex literals ending in
  // 'f' are not float literals.
  EXPECT_TRUE(
      scan_source("measure/x.cpp", "float scale() { return 0.5f; }").empty());
  auto fs = scan_source("analog/x.cpp",
                        "double f() { return 0.5 * 1e-3 + 0x2Fu; }");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR5, InlineWaiverSilences) {
  auto fs = scan_source(
      "signal/x.cpp",
      "// gdelay-audit: allow(R5) narrowing is intentional for the DAC model\n"
      "float dac_code(double v) { return static_cast<float>(v); }\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

// --------------------------------------------------------------------------
// R6 — no per-chunk allocation in measurement sinks
// --------------------------------------------------------------------------

TEST(AuditR6, FlagsContainerGrowthInConsume) {
  auto fs = scan_source("measure/x.cpp",
                        "void CaptureSink::consume(const double* s,\n"
                        "                          std::size_t n) {\n"
                        "  for (std::size_t i = 0; i < n; ++i)\n"
                        "    samples_.push_back(s[i]);\n"
                        "}\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R6"}) << render(fs);
  EXPECT_EQ(fs[0].line, 4);
  EXPECT_NE(fs[0].message.find("push_back"), std::string::npos);
}

TEST(AuditR6, FlagsInClassDefinitionAndPointerCalls) {
  auto fs = scan_source("measure/x.h",
                        "class Sink : public ISampleSink {\n"
                        " public:\n"
                        "  void consume(const double* s, std::size_t n)\n"
                        "      override {\n"
                        "    buf_->resize(n);\n"
                        "    ticks_.emplace_back(n);\n"
                        "  }\n"
                        "};\n");
  ASSERT_EQ(rules_of(fs), (std::vector<std::string>{"R6", "R6"}))
      << render(fs);
}

TEST(AuditR6, CleanOutsideConsumeAndOnNonGrowthCalls) {
  // Growth in begin()/finish() is fine (one-shot, not per chunk), and a
  // consume() body that only indexes or memcpy's never allocates.
  auto fs = scan_source(
      "measure/x.cpp",
      "void Sink::begin(double t0, double dt, std::size_t n) {\n"
      "  samples_.reserve(n);\n"
      "}\n"
      "void Sink::consume(const double* s, std::size_t n) {\n"
      "  std::memcpy(samples_.data() + pos_, s, n * sizeof(double));\n"
      "  pos_ += n;\n"
      "}\n"
      "void Sink::finish() { edges_.push_back(last_); }\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR6, DelegatingConsumeCallIsNotGrowth) {
  auto fs = scan_source("measure/x.cpp",
                        "void JitterSink::consume(const double* s,\n"
                        "                         std::size_t n) {\n"
                        "  edge_sink_.consume(s, n);\n"
                        "}\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR6, InlineWaiverSilencesWithReason) {
  auto fs = scan_source(
      "signal/x.cpp",
      "void Extractor::consume(const double* s, std::size_t n) {\n"
      "  // gdelay-audit: allow(R6) pruned window, O(transition) bounded\n"
      "  hist_.push_back(s[0]);\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

// --------------------------------------------------------------------------
// R7 — SIMD intrinsics and ISA retargeting only inside the compute backend
// --------------------------------------------------------------------------

TEST(AuditR7, FlagsIntrinsicHeaderInclude) {
  // The lexer strips preprocessor directives, so this exercises the raw
  // line scan, not the token scan.
  auto fs = scan_source("analog/x.cpp",
                        "#include <immintrin.h>\n"
                        "double f(double v) { return v; }\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R7"}) << render(fs);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_NE(fs[0].message.find("immintrin.h"), std::string::npos);
}

TEST(AuditR7, FlagsIntrinsicIdentifiersAndTypes) {
  auto fs = scan_source("signal/x.cpp",
                        "double f(const double* p) {\n"
                        "  __m256d v = _mm256_loadu_pd(p);\n"
                        "  return _mm256_cvtsd_f64(v);\n"
                        "}\n");
  ASSERT_EQ(rules_of(fs), (std::vector<std::string>{"R7", "R7", "R7"}))
      << render(fs);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(AuditR7, BackendDirectoryIsExempt) {
  const char* src =
      "#include <immintrin.h>\n"
      "#pragma GCC target(\"avx2\")\n"
      "__m256d dbl(__m256d v) { return _mm256_add_pd(v, v); }\n"
      "[[gnu::target(\"avx2\"), gnu::flatten]] void k(double* p);\n";
  EXPECT_TRUE(scan_source("backend/kernels_simd.cpp", src).empty());
  EXPECT_TRUE(scan_source("src/backend/kernels_simd.cpp", src).empty());
  auto fs = scan_source("util/x.cpp", src);
  EXPECT_EQ(rules_of(fs), std::vector<std::string>(6, "R7")) << render(fs);
}

TEST(AuditR7, FlagsTargetAttributesInModelFile) {
  // A model file compiled for another ISA forks the determinism
  // contract as surely as an intrinsic does, in every attribute spelling.
  auto fs = scan_source(
      "core/x.cpp",
      "[[gnu::target(\"avx2\")]] void a(double* p);\n"
      "__attribute__((target(\"avx2,fma\"))) void b(double* p);\n"
      "[[gnu::flatten, gnu::target_clones(\"avx2\", \"default\")]]\n"
      "void c(double* p);\n"
      "__attribute__((__target__(\"avx512f\"), hot)) void d(double* p);\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>(4, "R7")) << render(fs);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[1].line, 2);
  EXPECT_EQ(fs[2].line, 3);
  EXPECT_EQ(fs[3].line, 5);
  EXPECT_NE(fs[2].message.find("'target_clones' attribute"),
            std::string::npos)
      << fs[2].message;
}

TEST(AuditR7, FlagsTargetPragmasInModelFile) {
  // Pragmas are preprocessor directives, so the raw line scan finds
  // them; spacing does not matter. A clang attribute block is flagged
  // where it opens.
  auto fs = scan_source(
      "analog/x.cpp",
      "#pragma GCC push_options\n"
      "#  pragma   GCC target (\"avx2\")\n"
      "double f(double v) { return v; }\n"
      "#pragma GCC pop_options\n"
      "#pragma clang attribute push (__attribute__((target(\"avx2\"))), "
      "apply_to = function)\n"
      "#pragma clang attribute pop\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>(2, "R7")) << render(fs);
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_EQ(fs[0].col, 1);
  EXPECT_NE(fs[0].message.find("#pragma GCC target"), std::string::npos);
  EXPECT_EQ(fs[1].line, 5);
}

TEST(AuditR7, CleanOnOrdinaryIdentifiers) {
  // Identifiers that merely contain "mm" or "m256" as a substring (not a
  // prefix) must not trip the scan; nor may other attributes and
  // pragmas, or a `target` outside an attribute.
  auto fs = scan_source(
      "core/x.cpp",
      "double comm_m256(double hmm) { return hmm; }\n"
      "[[nodiscard, gnu::flatten]] double target(double x);\n"
      "__attribute__((unused)) static double k(double v) { return v; }\n"
      "double g(double target) { return target * 2.0; }\n"
      "double h(double v) { return target(v); }\n"
      "#pragma GCC unroll 4\n"
      "#pragma once\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR7, InlineWaiverSilencesWithReason) {
  // A pragma is waived by a waiver trailing the directive, since the
  // directive is not a code token.
  auto fs = scan_source(
      "util/x.cpp",
      "// gdelay-audit: allow(R7) prefetch hint only, no packed arithmetic\n"
      "void warm(const double* p) { _mm_prefetch((const char*)p, 3); }\n"
      "// gdelay-audit: allow(R7) probe of the CPU's AVX2 speed only\n"
      "[[gnu::target(\"avx2\")]] void probe(double* p);\n"
      "#pragma GCC target(\"avx2\")  // gdelay-audit: allow(R7) probe only\n"
      "void probe2(double* p);\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

// --------------------------------------------------------------------------
// R8 — lock discipline
// --------------------------------------------------------------------------

TEST(AuditR8, FlagsBareLockUnlockOnMutexMember) {
  auto fs = scan_source("util/x.h",
                        "class Counter {\n"
                        " public:\n"
                        "  void poke() {\n"
                        "    m_.lock();\n"
                        "    ++n_;\n"
                        "    m_.unlock();\n"
                        "  }\n"
                        " private:\n"
                        "  std::mutex m_;\n"
                        "  int n_ = 0;\n"
                        "};\n");
  ASSERT_EQ(rules_of(fs), (std::vector<std::string>{"R8", "R8"}))
      << render(fs);
  EXPECT_EQ(fs[0].line, 4);
  EXPECT_EQ(fs[1].line, 6);
  EXPECT_GT(fs[0].col, 0);
  EXPECT_NE(fs[0].message.find("RAII"), std::string::npos);
}

TEST(AuditR8, FlagsDeclarationOrderReversal) {
  auto fs = scan_source("util/x.h",
                        "class Pair {\n"
                        " public:\n"
                        "  void both() {\n"
                        "    std::lock_guard<std::mutex> lb(b_);\n"
                        "    std::lock_guard<std::mutex> la(a_);\n"
                        "  }\n"
                        " private:\n"
                        "  std::mutex a_;\n"
                        "  std::mutex b_;\n"
                        "};\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R8"}) << render(fs);
  EXPECT_EQ(fs[0].line, 5);
  EXPECT_NE(fs[0].message.find("reverses the declaration order"),
            std::string::npos);
}

TEST(AuditR8, CleanOnDeclarationOrderNesting) {
  auto fs = scan_source("util/x.h",
                        "class Pair {\n"
                        " public:\n"
                        "  void both() {\n"
                        "    std::lock_guard<std::mutex> la(a_);\n"
                        "    std::lock_guard<std::mutex> lb(b_);\n"
                        "  }\n"
                        " private:\n"
                        "  std::mutex a_;\n"
                        "  std::mutex b_;\n"
                        "};\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR8, FlagsCvWaitWhileHoldingSecondLock) {
  auto fs = scan_source("util/x.h",
                        "class Waiter {\n"
                        " public:\n"
                        "  void stall() {\n"
                        "    std::unique_lock<std::mutex> lk(m_);\n"
                        "    std::lock_guard<std::mutex> lg(aux_);\n"
                        "    cv_.wait(lk, [&] { return ready_; });\n"
                        "  }\n"
                        " private:\n"
                        "  std::mutex m_;\n"
                        "  std::mutex aux_;\n"
                        "  std::condition_variable cv_;\n"
                        "  bool ready_ = false;\n"
                        "};\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R8"}) << render(fs);
  EXPECT_EQ(fs[0].line, 6);
  EXPECT_NE(fs[0].message.find("condition-variable wait"), std::string::npos);
  EXPECT_NE(fs[0].message.find("'lg'"), std::string::npos);
}

TEST(AuditR8, CvWaitWithOnlyItsOwnLockIsClean) {
  auto fs = scan_source("util/x.h",
                        "class Waiter {\n"
                        " public:\n"
                        "  void stall() {\n"
                        "    std::unique_lock<std::mutex> lk(m_);\n"
                        "    cv_.wait(lk, [&] { return ready_; });\n"
                        "  }\n"
                        " private:\n"
                        "  std::mutex m_;\n"
                        "  std::condition_variable cv_;\n"
                        "  bool ready_ = false;\n"
                        "};\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR8, ManualUnlockOfGuardVarIsNotBare) {
  // unique_lock's own .unlock()/.lock() are part of the RAII protocol,
  // and a released guard no longer counts as held across a cv wait.
  auto fs = scan_source("util/x.cpp",
                        "void Job::step() {\n"
                        "  std::unique_lock<std::mutex> la(aux_);\n"
                        "  la.unlock();\n"
                        "  std::unique_lock<std::mutex> lk(m_);\n"
                        "  cv_.wait(lk);\n"
                        "}\n"
                        "class Job {\n"
                        " private:\n"
                        "  std::mutex m_;\n"
                        "  std::mutex aux_;\n"
                        "  std::condition_variable cv_;\n"
                        "};\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR8, AppliesToEveryFile) {
  // R8 has no path scope: a mutex anywhere in src/ follows the same
  // discipline as the pool's.
  auto fs = scan_source("measure/x.h",
                        "class Counter {\n"
                        " public:\n"
                        "  void poke() { m_.lock(); m_.unlock(); }\n"
                        " private:\n"
                        "  std::mutex m_;\n"
                        "};\n");
  ASSERT_EQ(rules_of(fs), (std::vector<std::string>{"R8", "R8"}))
      << render(fs);
}

TEST(AuditR8, InlineWaiverSilencesWithReason) {
  auto fs = scan_source(
      "util/x.h",
      "class Counter {\n"
      " public:\n"
      "  void poke() {\n"
      "    // gdelay-audit: allow(R8) interlocks with a C callback API\n"
      "    m_.lock();\n"
      "    // gdelay-audit: allow(R8) paired with the lock above\n"
      "    m_.unlock();\n"
      "  }\n"
      " private:\n"
      "  std::mutex m_;\n"
      "};\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR8, BaselineSuppresses) {
  auto fs = scan_source("util/x.h",
                        "class Counter {\n"
                        " public:\n"
                        "  void poke() { m_.lock(); }\n"
                        " private:\n"
                        "  std::mutex m_;\n"
                        "};\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R8"}) << render(fs);
  auto kept = gdelay::audit::apply_baseline(fs, "util/x.h:3:R8\n");
  EXPECT_TRUE(kept.empty()) << render(kept);
}

// --------------------------------------------------------------------------
// R9 — RNG stream hygiene in pool tasks
// --------------------------------------------------------------------------

namespace r9 {

// Class fragment shared by the R9 cases: holds a parent stream and
// declares fork_noise() so R3 stays quiet.
const char* kSweepClass =
    "class Sweep {\n"
    " public:\n"
    "  void run(std::size_t n);\n"
    "  void fork_noise(std::uint64_t);\n"
    " private:\n"
    "  util::Rng rng_;\n"
    "};\n";

}  // namespace r9

TEST(AuditR9, FlagsParentStreamDrawInPoolLambda) {
  auto fs = scan_source(
      "fast/x.cpp",
      std::string(r9::kSweepClass) +
          "void Sweep::run(std::size_t n) {\n"
          "  util::parallel_for(n, [&](std::size_t i) {\n"
          "    out_[i] = rng_.gauss();\n"
          "  });\n"
          "}\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R9"}) << render(fs);
  EXPECT_EQ(fs[0].line, 10);
  EXPECT_NE(fs[0].message.find("drawn inside a pool task"),
            std::string::npos);
}

TEST(AuditR9, FlagsParentStreamPassedByAddress) {
  auto fs = scan_source(
      "fast/x.cpp",
      std::string(r9::kSweepClass) +
          "void Sweep::run(std::size_t n) {\n"
          "  util::parallel_for(n, [&](std::size_t i) {\n"
          "    fill(&rng_, i);\n"
          "  });\n"
          "}\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R9"}) << render(fs);
  EXPECT_NE(fs[0].message.find("passed by address"), std::string::npos);
}

TEST(AuditR9, ForkedChildStreamIsClean) {
  auto fs = scan_source(
      "fast/x.cpp",
      std::string(r9::kSweepClass) +
          "void Sweep::run(std::size_t n) {\n"
          "  util::parallel_for(n, [&](std::size_t i) {\n"
          "    auto child = rng_.fork(i);\n"
          "    out_[i] = child.gauss();\n"
          "  });\n"
          "}\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR9, StreamDeclaredInsideBodyIsClean) {
  auto fs = scan_source("fast/x.cpp",
                        "void run(std::size_t n) {\n"
                        "  util::parallel_for(n, [&](std::size_t i) {\n"
                        "    util::Rng local(i);\n"
                        "    use(local.gauss());\n"
                        "  });\n"
                        "}\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR9, InlineWaiverSilencesWithReason) {
  auto fs = scan_source(
      "fast/x.cpp",
      std::string(r9::kSweepClass) +
          "void Sweep::run(std::size_t n) {\n"
          "  util::parallel_for(n, [&](std::size_t i) {\n"
          "    // gdelay-audit: allow(R9) serial fallback path, n is 1 here\n"
          "    out_[i] = rng_.gauss();\n"
          "  });\n"
          "}\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR9, BaselineSuppresses) {
  auto fs = scan_source(
      "fast/x.cpp",
      std::string(r9::kSweepClass) +
          "void Sweep::run(std::size_t n) {\n"
          "  util::parallel_for(n, [&](std::size_t i) {\n"
          "    out_[i] = rng_.gauss();\n"
          "  });\n"
          "}\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R9"}) << render(fs);
  auto kept = gdelay::audit::apply_baseline(fs, "fast/x.cpp:10:R9\n");
  EXPECT_TRUE(kept.empty()) << render(kept);
}

// --------------------------------------------------------------------------
// R10 — atomics discipline
// --------------------------------------------------------------------------

TEST(AuditR10, FlagsImplicitSeqCstShorthand) {
  auto fs = scan_source("util/x.h",
                        "class Stats {\n"
                        " public:\n"
                        "  void bump() {\n"
                        "    n_ = 5;\n"
                        "    ++n_;\n"
                        "    n_ += 2;\n"
                        "  }\n"
                        " private:\n"
                        "  std::atomic<int> n_{0};\n"
                        "};\n");
  ASSERT_EQ(rules_of(fs), (std::vector<std::string>{"R10", "R10", "R10"}))
      << render(fs);
  EXPECT_EQ(fs[0].line, 4);
  EXPECT_EQ(fs[1].line, 5);
  EXPECT_EQ(fs[2].line, 6);
  EXPECT_NE(fs[0].message.find("implicit seq_cst"), std::string::npos);
}

TEST(AuditR10, FlagsAtomicOpWithoutExplicitOrder) {
  auto fs = scan_source("util/x.h",
                        "class Stats {\n"
                        " public:\n"
                        "  void bump() { n_.store(5); }\n"
                        " private:\n"
                        "  std::atomic<int> n_{0};\n"
                        "};\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R10"}) << render(fs);
  EXPECT_NE(fs[0].message.find("explicit std::memory_order"),
            std::string::npos);
}

TEST(AuditR10, CleanOnExplicitOrders) {
  auto fs = scan_source(
      "util/x.h",
      "class Stats {\n"
      " public:\n"
      "  void bump() {\n"
      "    n_.store(5, std::memory_order_release);\n"
      "    n_.fetch_add(1, std::memory_order_relaxed);\n"
      "    int v = n_.load(std::memory_order_acquire);\n"
      "    (void)v;\n"
      "  }\n"
      " private:\n"
      "  std::atomic<int> n_{0};\n"
      "};\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR10, WriteOnceStoreOutsideCasClaimIsFlagged) {
  // Label inside the write-once allowlist: a plain store to the
  // namespace-scope atomic from a function with no CAS claim is the
  // racy-init shape the idiom forbids.
  auto fs = scan_source(
      "backend/dispatch.cpp",
      "namespace {\n"
      "std::atomic<int> g_val{0};\n"
      "}\n"
      "void reset(int v) {\n"
      "  g_val.store(v, std::memory_order_release);\n"
      "}\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R10"}) << render(fs);
  EXPECT_EQ(fs[0].line, 5);
  EXPECT_NE(fs[0].message.find("write-once"), std::string::npos);
}

TEST(AuditR10, WriteOnceStoreInsideCasClaimIsClean) {
  auto fs = scan_source(
      "backend/dispatch.cpp",
      "namespace {\n"
      "std::atomic<int> g_val{0};\n"
      "}\n"
      "int resolve(int v) {\n"
      "  int expected = 0;\n"
      "  if (g_val.compare_exchange_strong(expected, v,\n"
      "                                    std::memory_order_acq_rel))\n"
      "    return v;\n"
      "  return expected;\n"
      "}\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR10, InlineWaiverSilencesWithReason) {
  auto fs = scan_source(
      "util/x.h",
      "class Stats {\n"
      " public:\n"
      "  void bump() {\n"
      "    // gdelay-audit: allow(R10) single-threaded ctor path\n"
      "    ++n_;\n"
      "  }\n"
      " private:\n"
      "  std::atomic<int> n_{0};\n"
      "};\n");
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR10, BaselineSuppresses) {
  auto fs = scan_source("util/x.h",
                        "class Stats {\n"
                        " public:\n"
                        "  void bump() { n_ = 5; }\n"
                        " private:\n"
                        "  std::atomic<int> n_{0};\n"
                        "};\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R10"}) << render(fs);
  auto kept = gdelay::audit::apply_baseline(fs, "util/x.h:3:R10\n");
  EXPECT_TRUE(kept.empty()) << render(kept);
}

// --------------------------------------------------------------------------
// R11 — blocking calls reachable from pool tasks (cross-TU)
// --------------------------------------------------------------------------

namespace r11 {

// The pool hand-off lives in a.cpp; the blocking call is two hops away
// in b.cpp, so only the cross-TU call graph can connect them.
const char* kA =
    "void helper();\n"
    "void run_all(std::size_t n) {\n"
    "  util::parallel_for(n, [&](std::size_t i) { helper(); });\n"
    "}\n";

const char* kB =
    "void deep() {\n"
    "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
    "}\n"
    "void helper() { deep(); }\n";

}  // namespace r11

TEST(AuditR11, FlagsSleepTwoCallsBehindPoolLambda) {
  auto fs = scan_files({{"util/a.cpp", r11::kA}, {"util/b.cpp", r11::kB}}, {});
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R11"}) << render(fs);
  EXPECT_EQ(fs[0].file, "util/b.cpp");
  EXPECT_EQ(fs[0].line, 2);
  EXPECT_NE(fs[0].message.find("sleep_for"), std::string::npos);
  EXPECT_NE(fs[0].message.find("a pool-task lambda at util/a.cpp:3"),
            std::string::npos);
}

TEST(AuditR11, UnreachableBlockingCallIsClean) {
  // Same blocking helper, but nothing hands work to the pool: no root,
  // no finding.
  auto fs = scan_files({{"util/b.cpp", r11::kB}}, {});
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR11, ConsumeBodyIsARoot) {
  auto fs = scan_files(
      {{"measure/s.h",
        "class Sink {\n"
        " public:\n"
        "  void consume(const double* s, std::size_t n);\n"
        " private:\n"
        "  std::mutex m_;\n"
        "  std::condition_variable ready_;\n"
        "};\n"},
       {"measure/s.cpp",
        "void Sink::consume(const double* s, std::size_t n) {\n"
        "  std::unique_lock<std::mutex> lk(m_);\n"
        "  ready_.wait(lk);\n"
        "}\n"}},
      {});
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R11"}) << render(fs);
  EXPECT_EQ(fs[0].file, "measure/s.cpp");
  EXPECT_NE(fs[0].message.find("consume() in measure/s.cpp"),
            std::string::npos);
}

TEST(AuditR11, InlineWaiverInOtherFileSilences) {
  // The waiver sits on the blocking line in b.cpp while the root is in
  // a.cpp — scan_global must apply waivers recorded in the index for
  // files other than the root's.
  const char* waived_b =
      "void deep() {\n"
      "  // gdelay-audit: allow(R11) bounded back-off, workers never park\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n"
      "}\n"
      "void helper() { deep(); }\n";
  auto fs =
      scan_files({{"util/a.cpp", r11::kA}, {"util/b.cpp", waived_b}}, {});
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR11, BaselineSuppresses) {
  auto fs = scan_files({{"util/a.cpp", r11::kA}, {"util/b.cpp", r11::kB}}, {});
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R11"}) << render(fs);
  auto kept = gdelay::audit::apply_baseline(fs, "util/b.cpp:2:R11\n");
  EXPECT_TRUE(kept.empty()) << render(kept);
}

// --------------------------------------------------------------------------
// R12 — contract coverage (src vs tests cross-reference)
// --------------------------------------------------------------------------

namespace r12 {

const char* kElement =
    "class Gain {\n"
    " public:\n"
    "  void process_block(const double* in, double* out, std::size_t n,\n"
    "                     double dt_ps);\n"
    "};\n";

const char* kKernels =
    "struct Kernels {\n"
    "  const char* name;\n"
    "  void (*scale)(const double*, double*, std::size_t);\n"
    "};\n";

std::vector<SourceFile> sources() {
  return {{"analog/elem.h", kElement}, {"backend/tab.h", kKernels}};
}

}  // namespace r12

TEST(AuditR12, FlagsEveryUncoveredContract) {
  // No test sources mention anything: with the corpus registered but
  // empty of the contract identifiers, every domain reports.
  std::vector<SourceFile> tests = {
      {"tests/test_block_kernels.cpp", "TEST(B, Smoke) {}"},
      {"tests/test_backend_equivalence.cpp", "TEST(E, Smoke) {}"}};
  auto fs = scan_files(r12::sources(), tests);
  ASSERT_EQ(rules_of(fs), (std::vector<std::string>{"R12", "R12"}))
      << render(fs);
  std::string all = render(fs);
  EXPECT_NE(all.find("'Gain'"), std::string::npos);
  EXPECT_NE(all.find("'scale'"), std::string::npos);
}

TEST(AuditR12, FlagsUncoveredElementWithoutStep) {
  // Coverage keys on the block path, not on a base or a step(): a class
  // that declares process_block() is a device and must be covered; a
  // class with no process_block() is not a device.
  std::vector<SourceFile> srcs = {
      {"analog/elem.h", r12::kElement},
      {"analog/leaf.h",
       "class Tap final : public Gain {\n"
       " public:\n"
       "  void process_block(const double* in, double* out, std::size_t n,\n"
       "                     double dt_ps);\n"
       "};\n"
       "class Probe {\n"
       " public:\n"
       "  double step(double vin, double dt_ps);\n"
       "};\n"}};
  std::vector<SourceFile> tests = {
      {"tests/test_block_kernels.cpp", "TEST(B, G) { Gain g; }"}};
  auto fs = scan_files(srcs, tests);
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R12"}) << render(fs);
  EXPECT_EQ(fs[0].file, "analog/leaf.h");
  EXPECT_NE(fs[0].message.find("'Tap'"), std::string::npos);
}

TEST(AuditR12, CleanWhenEveryContractIsCovered) {
  // The element in the lane x chunk suite, the kernel entry in the
  // backend suite — and neither counts from the other's file.
  std::vector<SourceFile> tests = {
      {"tests/test_block_kernels.cpp", "TEST(B, G) { Gain g; }"},
      {"tests/test_backend_equivalence.cpp",
       "TEST(E, S) { k->scale(nullptr, nullptr, 0); }"}};
  auto fs = scan_files(r12::sources(), tests);
  EXPECT_TRUE(fs.empty()) << render(fs);
  tests[0].content = "TEST(B, S) { k->scale(nullptr, nullptr, 0); }";
  tests[1].content = "TEST(E, G) { Gain g; }";
  fs = scan_files(r12::sources(), tests);
  EXPECT_EQ(rules_of(fs), (std::vector<std::string>{"R12", "R12"}))
      << render(fs);
}

TEST(AuditR12, SkippedWithoutRegisteredTests) {
  auto fs = scan_files(r12::sources(), {});
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR12, InlineWaiverSilencesWithReason) {
  std::vector<SourceFile> srcs = r12::sources();
  srcs[1].content =
      "// gdelay-audit: allow(R12) scale is pinned through the elements "
      "that call it\n" +
      std::string(r12::kKernels);
  std::vector<SourceFile> tests = {
      {"tests/test_block_kernels.cpp", "TEST(B, G) { Gain g; }"},
      {"tests/test_backend_equivalence.cpp", "TEST(E, Smoke) {}"}};
  auto fs = scan_files(srcs, tests);
  EXPECT_TRUE(fs.empty()) << render(fs);
}

TEST(AuditR12, BaselineSuppresses) {
  std::vector<SourceFile> tests = {
      {"tests/test_block_kernels.cpp", "TEST(B, G) { Gain g; }"},
      {"tests/test_backend_equivalence.cpp", "TEST(E, Smoke) {}"}};
  auto fs = scan_files(r12::sources(), tests);
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R12"}) << render(fs);
  EXPECT_NE(fs[0].message.find("'scale'"), std::string::npos);
  auto kept = gdelay::audit::apply_baseline(fs, "backend/tab.h:1:R12\n");
  EXPECT_TRUE(kept.empty()) << render(kept);
}

// --------------------------------------------------------------------------
// Cross-TU symbol index correctness
// --------------------------------------------------------------------------

TEST(AuditIndex, ResolvesMembersAndCallEdgesAcrossFiles) {
  auto idx = build_index({{"util/a.h",
                           "class Svc {\n"
                           " public:\n"
                           "  void ping();\n"
                           " private:\n"
                           "  std::mutex mu_;\n"
                           "  std::condition_variable cv_;\n"
                           "  std::atomic<int> n_{0};\n"
                           "};\n"},
                          {"util/b.cpp", "void pong() { ping(); }\n"}});

  // Member-type maps merged over all classes.
  EXPECT_EQ(idx.mutex_names.count("mu_"), 1u);
  EXPECT_EQ(idx.cv_names.count("cv_"), 1u);
  EXPECT_EQ(idx.atomic_names.count("n_"), 1u);

  // The mutex rank records the declaring file and source order.
  auto mr = idx.mutex_rank.find("mu_");
  ASSERT_NE(mr, idx.mutex_rank.end());
  EXPECT_EQ(mr->second.first, "util/a.h");
  EXPECT_EQ(mr->second.second, 0);

  // The class itself, with its method set.
  const gdelay::audit::IndexedClass* svc = nullptr;
  for (const auto& c : idx.classes)
    if (c.name == "Svc") svc = &c;
  ASSERT_NE(svc, nullptr);
  EXPECT_EQ(svc->file, "util/a.h");
  EXPECT_EQ(svc->methods.count("ping"), 1u);

  // The function in the other TU, with its outgoing call edge.
  const gdelay::audit::IndexedFunction* pong = nullptr;
  for (const auto& f : idx.functions)
    if (f.name == "pong") pong = &f;
  ASSERT_NE(pong, nullptr);
  EXPECT_EQ(pong->file, "util/b.cpp");
  EXPECT_EQ(pong->calls.count("ping"), 1u);
}

// --------------------------------------------------------------------------
// Waiver hygiene, baseline, formatting
// --------------------------------------------------------------------------

TEST(AuditWaiver, MissingReasonIsItselfAFinding) {
  auto fs = scan_source("util/x.cpp",
                        "// gdelay-audit: allow(R2)\n"
                        "int b() { return std::rand(); }\n");
  auto rules = rules_of(fs);
  ASSERT_EQ(fs.size(), 2u) << render(fs);
  EXPECT_NE(std::find(rules.begin(), rules.end(), "waiver"), rules.end());
  EXPECT_NE(std::find(rules.begin(), rules.end(), "R2"), rules.end());
}

TEST(AuditWaiver, WrongRuleDoesNotSilence) {
  auto fs = scan_source(
      "util/x.cpp",
      "// gdelay-audit: allow(R1) wrong rule id for this finding\n"
      "int b() { return std::rand(); }\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R2"}) << render(fs);
}

TEST(AuditBaseline, SuppressesListedFindingsOnly) {
  auto fs = scan_source("util/x.cpp",
                        "int a() { return std::rand(); }\n"
                        "int b() { return std::rand(); }\n");
  ASSERT_EQ(fs.size(), 2u) << render(fs);
  auto kept = gdelay::audit::apply_baseline(
      fs, "# comment\nutil/x.cpp:1:R2\n\n");
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(kept[0].line, 2);
}

TEST(AuditFormat, GccDiagnosticShape) {
  Finding f{"analog/x.cpp", 12, 0, "R1", "direct libm call"};
  EXPECT_EQ(gdelay::audit::format(f),
            "analog/x.cpp:12: error[R1]: direct libm call");
}

TEST(AuditFormat, ColumnRenderedWhenKnown) {
  Finding f{"f.cpp", 3, 7, "R1", "m"};
  EXPECT_EQ(gdelay::audit::format(f), "f.cpp:3:7: error[R1]: m");
}

TEST(AuditFormat, BaselineRoundTrip) {
  Finding f{"analog/x.cpp", 12, 0, "R1", "direct libm call"};
  std::string text = gdelay::audit::to_baseline({f});
  auto kept = gdelay::audit::apply_baseline({f}, text);
  EXPECT_TRUE(kept.empty());
}

TEST(AuditBaseline, StaleEntriesAreReported) {
  auto fs = scan_source("util/x.cpp", "int a() { return std::rand(); }\n");
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R2"}) << render(fs);
  auto stale = gdelay::audit::stale_baseline_entries(
      fs, "# note\nutil/x.cpp:1:R2\nutil/x.cpp:9:R1\n");
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], "util/x.cpp:9:R1");
}

TEST(AuditStats, CountsFindingsAndWaiversPerRule) {
  ScanStats st;
  auto fs = scan_source("util/x.cpp",
                        "int a() { return std::rand(); }\n"
                        "// gdelay-audit: allow(R2) deterministic probe only\n"
                        "int b() { return std::rand(); }\n",
                        Options{}, nullptr, &st);
  ASSERT_EQ(rules_of(fs), std::vector<std::string>{"R2"}) << render(fs);
  EXPECT_EQ(st.findings["R2"], 1);
  EXPECT_EQ(st.waived["R2"], 1);
  EXPECT_EQ(st.files_scanned, 1);
}

TEST(AuditSarif, EmitsValidShape) {
  Finding f{"util/x.cpp", 3, 7, "R8", "bare \"lock\" call"};
  std::string doc = gdelay::audit::to_sarif({f});
  EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\": \"gdelay-audit\""), std::string::npos);
  EXPECT_NE(doc.find("\"ruleId\": \"R8\""), std::string::npos);
  EXPECT_NE(doc.find("\"startLine\": 3"), std::string::npos);
  EXPECT_NE(doc.find("\"startColumn\": 7"), std::string::npos);
  // Embedded quotes must come out escaped, and every catalogued rule
  // must appear in the driver's rule table.
  EXPECT_NE(doc.find("bare \\\"lock\\\" call"), std::string::npos);
  for (const auto& r : gdelay::audit::rule_catalog())
    EXPECT_NE(doc.find(std::string("\"id\": \"") + r.id + "\""),
              std::string::npos)
        << r.id;
}

TEST(AuditSarif, ColumnOmittedWhenUnknown) {
  Finding f{"a.cpp", 5, 0, "R12", "uncovered"};
  std::string doc = gdelay::audit::to_sarif({f});
  EXPECT_NE(doc.find("\"startLine\": 5"), std::string::npos);
  EXPECT_EQ(doc.find("startColumn"), std::string::npos);
}

// --------------------------------------------------------------------------
// Self-scan — the live tree obeys its own rules
// --------------------------------------------------------------------------

TEST(AuditSelfScan, LiveSourceTreeIsClean) {
  auto fs = gdelay::audit::scan_tree(GDELAY_SOURCE_ROOT, Options{});
  EXPECT_TRUE(fs.empty()) << "src/ has unwaived audit findings:\n"
                          << render(fs);
}

TEST(AuditSelfScan, LiveTreeWithTestCorpusIsClean) {
  // Registers tests/ as the R12 corpus (the same thing the CLI gate does
  // with --tests), so the contract-coverage rule actually runs: every
  // device and Kernels entry in the live tree must be
  // exercised by its designated suite.
  auto sources = gdelay::audit::collect_tree(GDELAY_SOURCE_ROOT);
  auto tests = gdelay::audit::collect_tree(GDELAY_TEST_ROOT);
  for (auto& t : tests) t.label = "tests/" + t.label;
  ASSERT_FALSE(sources.empty());
  ASSERT_FALSE(tests.empty());
  auto fs = scan_files(sources, tests);
  EXPECT_TRUE(fs.empty())
      << "src/ has unwaived audit findings (R12 corpus registered):\n"
      << render(fs);
}

}  // namespace
