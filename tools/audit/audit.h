// gdelay-audit: project-specific static analysis for the waveform engine.
//
// The simulator's determinism contracts — bit-exact output across runs,
// thread counts, chunk sizes and host libm — are written down in DESIGN.md
// and enforced at runtime by the byte-identity test suites. But runtime
// tests only exercise the devices someone remembered to test; this tool
// proves the *source* obeys the contracts, for every device and every
// file, so a new device cannot silently reintroduce host-libm
// dependence, RNG-stream aliasing, or an untested block contract.
//
// The tool is a TWO-PASS analyzer. Pass 1 tokenizes every file once and
// builds a cross-TU SymbolIndex: classes with their methods,
// mutex / condition-variable / atomic / Rng members, function definitions
// with their outgoing call edges and blocking sites, the backend
// kernel-table fields, and the identifier sets of the registered test
// sources. Pass 2 runs the rules with that index in hand,
// which is what lets the concurrency rules type a receiver declared in a
// different header and lets the coverage rule cross-reference src/ against
// tests/. The per-file scans are fanned out over the repo's own
// deterministic ThreadPool (results collected in file order, so the output
// is byte-stable at any GDELAY_THREADS — the tool dogfoods the contract it
// enforces).
//
// Rules (see DESIGN.md "Static guarantees" for the rationale):
//
//   R1  no direct libm transcendentals (std::tanh/log/exp/sin/cos/pow,
//       bare tanh(...) and friends) outside util/fastmath.h — the signal
//       path must use the det_* kernels, whose bit patterns are identical
//       on every conforming platform.
//   R2  no nondeterminism sources anywhere in src/: std::random_device,
//       rand()/srand(), time(), wall-clock *_clock reads, getenv()
//       (except util/thread_pool, backend/dispatch).
//   R3  noise-stream forking: every class holding a Rng or NoiseSource
//       member must declare fork_noise() so the copy-based sweeps can
//       decorrelate its streams.
//   R4  no mutable namespace-scope state (data races under
//       GDELAY_THREADS, and order-of-initialization hazards).
//   R5  no float: the analog path (analog/, signal/, core/) is double
//       end-to-end; a float literal or variable would silently round.
//   R6  no per-chunk allocation in measurement sinks: a container-growth
//       call (push_back/emplace/insert/resize/...) inside a consume()
//       body breaks the streaming executor's O(chunk) memory contract.
//       Bounded growth (reserved up front) is waived inline.
//   R7  SIMD intrinsics (immintrin.h-family includes, _mm*/__m128/
//       __m256/__m512 identifiers) and ISA retargeting (target /
//       target_clones attributes, #pragma GCC target, #pragma clang
//       attribute) only inside src/backend/ — vector code outside the
//       pluggable-backend boundary would fork the per-backend
//       determinism contract invisibly.
//   R8  lock discipline: mutexes are acquired through RAII guards only
//       (no bare .lock()/.unlock() on a mutex member); when guards nest,
//       mutexes declared in the same file must be acquired in their
//       declaration order (a consistent per-file hierarchy is what makes
//       deadlock freedom decidable); and no lock may be held across a
//       .wait() on a condition variable other than the wait's own lock.
//   R9  RNG stream hygiene: an Rng/NoiseSource lvalue from an enclosing
//       scope, captured by reference into a lambda handed to the thread
//       pool (parallel_for/parallel_map/submit), must only be used to
//       fork (.fork()/fork_noise()); drawing from the parent stream
//       inside a pool task would make the draw order schedule-dependent.
//   R10 atomics discipline: operations on namespace-scope or member
//       atomics must spell an explicit std::memory_order (no implicit
//       seq_cst assignment/increment shorthand); and the allowlisted
//       write-once state (backend/dispatch) must match the write-once
//       idiom — plain stores to a namespace-scope atomic are only
//       permitted in functions that also run a compare_exchange/call_once
//       claim on an atomic.
//   R11 no blocking calls (sleep_for/sleep_until, condition-variable
//       .wait()) in code reachable from a pool-task lambda or a
//       streaming-sink consume() body. The reachability walk follows the
//       cross-TU call graph by name, so a wait buried two calls deep
//       behind a parallel_map still surfaces.
//   R12 contract coverage: every device — a class that declares
//       process_block() — must appear in the lane x chunk invariance
//       suite, and every backend::Kernels table entry in the backend
//       equivalence suite — an untested contract is a build-time
//       finding, not a latent divergence. Runs only when test sources
//       are registered (--tests on the CLI).
//
// Diagnostics are GCC-style `file:line:col: error[rule]: message`. A
// finding can be waived inline:
//
//   // gdelay-audit: allow(R1) one-line justification (required)
//
// on the offending line or the line above, or recorded in a checked-in
// baseline file (`file:line:rule` per line) for grandfathered findings.
// `stale_baseline_entries` reports baseline lines that no longer match
// any finding, so waivers cannot outlive the code they excused.
//
// The scanner is a lightweight tokenizer, not a compiler: it strips
// comments, strings and preprocessor directives, then pattern-matches
// token sequences with a scope stack (namespace/class/function). That is
// deliberate — the rules are designed to be decidable at token level, and
// the tool builds in ~nothing and runs in milliseconds as `ctest -R Audit`.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

namespace gdelay::audit {

/// One rule violation (or malformed waiver).
struct Finding {
  std::string file;     ///< Label the file was scanned under.
  int line = 0;         ///< 1-based.
  int col = 0;          ///< 1-based column; 0 when not attributable.
  std::string rule;     ///< "R1".."R12", or "waiver" for a malformed waiver.
  std::string message;  ///< Human-readable explanation with the fix.
};

/// One source file handed to the analyzer (label + full content). Labels
/// are root-relative with forward slashes; all path-based rule scoping
/// matches against them.
struct SourceFile {
  std::string label;
  std::string content;
};

/// Rule catalogue entry (drives --list-rules and the SARIF rule table).
struct RuleInfo {
  const char* id;       ///< "R1".."R12"
  const char* summary;  ///< one-line description
  const char* scope;    ///< where the rule applies (path scoping note)
};

/// All rules, in id order (plus the "waiver" hygiene pseudo-rule).
const std::vector<RuleInfo>& rule_catalog();

/// Path-based rule scoping. All fragments match against the scan label
/// (root-relative, forward slashes).
struct Options {
  /// R1 does not apply here (this is where the det_* kernels live).
  std::string fastmath_suffix = "util/fastmath.h";
  /// Labels containing one of these may call getenv (R2): thread_pool
  /// owns GDELAY_THREADS and the backend dispatcher owns GDELAY_BACKEND,
  /// both reproducibility-neutral performance knobs (results are
  /// bit-identical at any setting).
  std::vector<std::string> getenv_allowed = {"util/thread_pool",
                                             "backend/dispatch"};
  /// R5 applies to labels starting with one of these prefixes.
  std::vector<std::string> analog_prefixes = {"analog/", "signal/", "core/"};
  /// Labels containing one of these may hold namespace-scope mutable
  /// state (R4): the backend dispatcher's write-once active-table
  /// atomics. Because the state claims to be write-once, R10 checks that
  /// its stores sit behind a compare_exchange / call_once claim. Keep
  /// this list short.
  std::vector<std::string> mutable_state_allowlist = {"backend/dispatch"};
  /// R7: labels starting with (or containing a path segment equal to)
  /// this prefix may use SIMD intrinsics and target attributes/pragmas.
  std::string simd_prefix = "backend/";
  /// The R12 coverage spec: the kernel-table struct and the test files
  /// (label fragments) each contract domain must appear in — every
  /// device (a class declaring process_block()) in the lane x chunk
  /// invariance suite, every kernel entry in the backend equivalence
  /// suite.
  std::string kernels_struct = "Kernels";
  std::vector<std::string> element_coverage_files = {"test_block_kernels"};
  std::vector<std::string> kernel_coverage_files = {"test_backend_equivalence"};
};

/// One class as seen by pass 1.
struct IndexedClass {
  std::string file;
  int line = 0;
  std::string name;
  std::set<std::string> methods;
  /// Mutex members in declaration order (the R8 lock hierarchy for the
  /// declaring file is the concatenation of these, in file order).
  std::vector<std::string> mutex_members;
  std::set<std::string> cv_members;      ///< condition_variable[_any]
  std::set<std::string> atomic_members;  ///< std::atomic<...>
  std::set<std::string> rng_members;     ///< Rng / NoiseSource
  std::vector<std::string> fnptr_members;  ///< function-pointer fields
};

/// One function definition (or pool-task lambda) with its call edges and
/// any blocking sites found directly in its body.
struct IndexedFunction {
  std::string file;
  int line = 0;
  int end_line = 0;
  std::string name;  ///< unqualified; "<pool-lambda>"/"consume" are roots
  bool pool_root = false;  ///< lambda handed to the pool, or consume()
  bool has_cas = false;    ///< body runs compare_exchange/call_once (R10)
  std::set<std::string> calls;  ///< unqualified callee names
  /// A candidate blocking call, recorded untyped in pass 1; scan_global
  /// resolves a `.wait()` receiver against the merged cv member names.
  struct BlockingSite {
    int line = 0;
    int col = 0;
    std::string receiver;  ///< object the method is called on ("" if free)
    std::string method;    ///< "wait" / "sleep_for" / "sleep_until"
    std::string what;      ///< display form, e.g. "ready_.wait"
  };
  std::vector<BlockingSite> blocking;
};

/// Cross-TU symbol index (pass 1 output).
struct SymbolIndex {
  std::vector<IndexedClass> classes;
  std::vector<IndexedFunction> functions;
  /// Well-formed inline waivers per file: line -> waived rule ids. Lets
  /// scan_global apply waivers for findings it attributes to other files.
  std::map<std::string, std::map<int, std::set<std::string>>> waivers;
  /// Identifier sets of the registered test sources, keyed by label.
  std::map<std::string, std::set<std::string>> test_idents;

  /// Global member-name type maps (merged over all classes; name-keyed —
  /// the token scanner has no qualified lookup, and a collision merely
  /// widens a receiver's possible types, erring toward reporting).
  std::set<std::string> mutex_names, cv_names, atomic_names, rng_names;
  /// Mutex name -> (declaring file, declaration rank within that file).
  std::map<std::string, std::pair<std::string, int>> mutex_rank;
  /// Namespace-scope atomic variable names per file label (R10 write-once
  /// idiom applies to these, not to member atomics).
  std::map<std::string, std::set<std::string>> ns_atomics;
};

/// Builds the index over `sources` + `test_sources`. Test sources
/// contribute their identifier sets (for R12 coverage) but are never
/// rule-scanned themselves.
SymbolIndex build_index(const std::vector<SourceFile>& sources,
                        const std::vector<SourceFile>& test_sources = {},
                        const Options& opt = {});

/// Aggregate end-of-run accounting (per-rule findings and inline-waiver
/// counts, scanned-file count). Findings are counted post-waiver,
/// pre-baseline.
struct ScanStats {
  std::map<std::string, int> findings;  ///< rule -> surviving findings
  std::map<std::string, int> waived;    ///< rule -> inline-waived findings
  int files_scanned = 0;
};

/// Scans one in-memory source file; `label` is used for diagnostics and
/// for the path-based scoping in Options. Inline waivers are already
/// applied; malformed waivers (missing reason) come back as rule "waiver".
/// When `index` is null a single-file index is built internally, so the
/// per-file rules (R1-R10) still run; the cross-TU rules (R11 call-graph
/// reachability beyond this file, R12) need `scan_global`.
std::vector<Finding> scan_source(const std::string& label,
                                 const std::string& content,
                                 const Options& opt = {},
                                 const SymbolIndex* index = nullptr,
                                 ScanStats* stats = nullptr);

/// The cross-TU rules: R11 blocking-call reachability over the whole
/// call graph and R12 contract coverage. Inline waivers recorded in the
/// index are applied. R12 is skipped when the index holds no test
/// sources.
std::vector<Finding> scan_global(const SymbolIndex& index,
                                 const Options& opt = {},
                                 ScanStats* stats = nullptr);

/// Full two-pass scan: build_index over sources+tests, per-file rules on
/// every source (fanned out over the deterministic ThreadPool, collected
/// in input order), then scan_global. This is what the CLI and the tree
/// gate run.
std::vector<Finding> scan_files(const std::vector<SourceFile>& sources,
                                const std::vector<SourceFile>& test_sources,
                                const Options& opt = {},
                                ScanStats* stats = nullptr);

/// Reads every .h/.hpp/.cpp/.cc under `root` (sorted, so the output
/// order is stable). Labels are root-relative.
std::vector<SourceFile> collect_tree(const std::string& root);

/// Recursively scans every source file under `root` — scan_files over
/// collect_tree(root) with no test sources (R12 skipped).
std::vector<Finding> scan_tree(const std::string& root,
                               const Options& opt = {});

/// "file:line:col: error[rule]: message" — GCC diagnostic shape, so
/// editors and CI annotations pick it up for free (the ":col" part is
/// omitted for findings with no column).
std::string format(const Finding& f);

/// Drops findings listed in a baseline ("file:line:rule" per line; '#'
/// comments and blank lines ignored).
std::vector<Finding> apply_baseline(std::vector<Finding> findings,
                                    const std::string& baseline_text);

/// Baseline entries that no longer match any finding (rot check for
/// --check-baseline): grandfathered waivers must not outlive the code
/// they excused.
std::vector<std::string> stale_baseline_entries(
    const std::vector<Finding>& findings, const std::string& baseline_text);

/// Renders findings in baseline form (for --write-baseline).
std::string to_baseline(const std::vector<Finding>& findings);

}  // namespace gdelay::audit
