#include "line_rules.hh"

#include <algorithm>
// GCC 12 under ASan flags std::function inside libstdc++'s <regex>.
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <regex>
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace dora::analyze
{

namespace
{

// ---------------------------------------------------------------- //
// Helpers                                                          //
// ---------------------------------------------------------------- //

bool
fileMentions(const ScannedUnit &file, const char *token)
{
    for (const auto &line : file.code)
        if (line.find(token) != std::string::npos)
            return true;
    return false;
}

void
emitMatches(const ScannedUnit &file, const std::regex &re,
            const char *rule, const char *message,
            std::vector<Finding> &out)
{
    for (size_t i = 0; i < file.code.size(); ++i)
        if (std::regex_search(file.code[i], re))
            out.push_back(Finding{file.path, static_cast<int>(i + 1),
                                  rule, message});
}

// ---------------------------------------------------------------- //
// Determinism rules                                                //
// ---------------------------------------------------------------- //

/** dora-det-rand: unseeded / process-global randomness. */
void
ruleDetRand(const ScannedUnit &f, std::vector<Finding> &out)
{
    static const std::regex re(
        R"((^|[^\w])(std::)?(rand|srand|drand48|lrand48|mrand48|random)\s*\(|std::random_device)");
    emitMatches(f, re, "dora-det-rand",
                "unseeded/global randomness breaks bit-identical "
                "replay; derive a seeded stream from common/rng.hh",
                out);
}

/** The wall-clock token set shared by two rules. */
const std::regex &
wallClockRe()
{
    static const std::regex re(
        R"(system_clock|steady_clock|high_resolution_clock|gettimeofday|clock_gettime|timespec_get|__DATE__|__TIME__|__TIMESTAMP__|(^|[^\w.])(time|clock|localtime|gmtime|ctime|asctime|strftime|mktime)\s*\()");
    return re;
}

/** dora-det-wallclock: wall-clock reads inside simulation code. */
void
ruleDetWallclock(const ScannedUnit &f, std::vector<Finding> &out)
{
    if (!hasPrefix(f.path, "src/"))
        return;
    // Timing the *host* is the purpose of the execution engine's job
    // metrics and the obs layer; simulated components must derive all
    // time from tick arithmetic.
    if (anyPrefix(f.path, {"src/exec/", "src/obs/"}))
        return;
    emitMatches(f, wallClockRe(), "dora-det-wallclock",
                "wall-clock input in simulation code makes results "
                "machine/schedule-dependent; use simulated ticks "
                "(allowlisted: src/exec, src/obs)",
                out);
}

/** dora-det-unordered: iteration-order-dependent accumulation risk. */
void
ruleDetUnordered(const ScannedUnit &f, std::vector<Finding> &out)
{
    if (!hasPrefix(f.path, "src/"))
        return;
    if (anyPrefix(f.path, {"src/exec/", "src/obs/"}))
        return;
    static const std::regex re(
        R"(std::unordered_(map|set|multimap|multiset)\b)");
    emitMatches(f, re, "dora-det-unordered",
                "unordered-container iteration order is "
                "implementation-defined; result-producing code must "
                "use std::map / sorted vectors (or justify with "
                "NOLINT)",
                out);
}

/** dora-det-confighash: wall-clock near config-hash producers. */
void
ruleDetConfigHash(const ScannedUnit &f, std::vector<Finding> &out)
{
    if (!anyPrefix(f.path, {"src/", "bench/"}))
        return;
    if (!fileMentions(f, "ConfigHash"))
        return;
    for (size_t i = 0; i < f.code.size(); ++i)
        if (std::regex_search(f.code[i], wallClockRe()))
            out.push_back(Finding{
                f.path, static_cast<int>(i + 1), "dora-det-confighash",
                "wall-clock/date input in a file feeding "
                "experimentConfigHash/trainingConfigHash poisons "
                "cache keys and silently mixes incompatible runs"});
}

// ---------------------------------------------------------------- //
// Concurrency rules                                                //
// ---------------------------------------------------------------- //

/** dora-conc-global-state: mutable statics without synchronization. */
void
ruleConcGlobalState(const ScannedUnit &f, std::vector<Finding> &out)
{
    if (!hasPrefix(f.path, "src/"))
        return;
    static const std::regex static_re(R"((^|\s)(static)\s+)");
    static const std::regex global_re(
        R"((^|[^\w])g_\w+\s*(=[^=]|\{|;))");
    static const std::regex safe_re(
        R"(\b(const|constexpr|constinit|thread_local|once_flag)\b|atomic|[Mm]utex|GUARDED_BY)");
    static const std::regex reference_re(R"(static\s+[^=;(]*&)");
    for (size_t i = 0; i < f.code.size(); ++i) {
        // For `static` declarations analyze from the keyword onward
        // (a one-line function body may precede it); for g_ globals
        // analyze the whole line (the type, e.g. std::atomic, usually
        // precedes the name).
        std::smatch m;
        std::string stmt;
        if (std::regex_search(f.code[i], m, static_re))
            stmt = "static" + f.code[i].substr(
                static_cast<size_t>(m.position(2)) + 6);
        else if (std::regex_search(f.code[i], global_re))
            stmt = f.code[i];
        else
            continue;
        // Join continuation lines until the statement's shape is
        // decidable (`static Foo\n  bar(...);` spans two lines).
        for (size_t j = i + 1;
             j < f.code.size() && j < i + 4 &&
             stmt.find_first_of("(={;") == std::string::npos;
             ++j)
            stmt += " " + f.code[j];
        if (std::regex_search(stmt, safe_re))
            continue;
        if (std::regex_search(stmt, reference_re))
            continue;
        // A '(' before any '=' marks a function declaration/definition
        // (`static Foo bar(...)`), not a data definition.
        const size_t paren = stmt.find('(');
        const size_t eq = stmt.find('=');
        if (paren != std::string::npos &&
            (eq == std::string::npos || paren < eq))
            continue;
        out.push_back(Finding{
            f.path, static_cast<int>(i + 1), "dora-conc-global-state",
            "mutable file-scope/static state must be std::atomic, "
            "mutex-guarded (GUARDED_BY), or NOLINT-justified"});
    }
}

/** dora-conc-mutex-unannotated: header mutexes with no GUARDED_BY. */
void
ruleConcMutexUnannotated(const ScannedUnit &f,
                         std::vector<Finding> &out)
{
    if (!hasPrefix(f.path, "src/") || !hasSuffix(f.path, ".hh"))
        return;
    static const std::regex member_re(
        R"((^|\s)(mutable\s+)?((std::)?(mutex|recursive_mutex|shared_mutex|timed_mutex)|(dora::)?Mutex)\s+\w+\s*;)");
    if (fileMentions(f, "GUARDED_BY"))
        return;
    emitMatches(f, member_re, "dora-conc-mutex-unannotated",
                "mutex member declared but no field in this header is "
                "GUARDED_BY it; annotate the guarded state "
                "(common/thread_annotations.hh) so clang "
                "-Wthread-safety can check the locking discipline",
                out);
}

// ---------------------------------------------------------------- //
// Hygiene rules                                                    //
// ---------------------------------------------------------------- //

/** dora-hyg-stream: direct console output from library code. */
void
ruleHygStream(const ScannedUnit &f, std::vector<Finding> &out)
{
    if (!hasPrefix(f.path, "src/"))
        return;
    // The log sink is the one place that may write to stderr.
    if (f.path == "src/common/logging.cc")
        return;
    static const std::regex re(
        R"(std::cout|std::cerr|std::clog|(^|[^\w])(printf|vprintf|fprintf|vfprintf|puts|fputs|putchar|fputc)\s*\()");
    emitMatches(f, re, "dora-hyg-stream",
                "library code must not write to the console directly; "
                "route through inform()/warn()/debugLog() "
                "(common/logging.hh) so output is serialized and "
                "rate-limited",
                out);
}

/** dora-hyg-catch-all: catch (...) that swallows silently. */
void
ruleHygCatchAll(const ScannedUnit &f, std::vector<Finding> &out)
{
    if (!anyPrefix(f.path, {"src/", "bench/"}))
        return;
    static const std::regex catch_re(R"(catch\s*\(\s*\.\.\.\s*\))");
    static const std::regex handled_re(
        R"(\bthrow\b|rethrow_exception|current_exception|\b(warn|fatal|panic|inform|debugLog|abort)\s*\(|std::exit)");
    for (size_t i = 0; i < f.code.size(); ++i) {
        std::smatch m;
        if (!std::regex_search(f.code[i], m, catch_re))
            continue;
        // Collect the handler block: everything from the catch up to
        // the brace that balances the handler's opening '{', then
        // look for a rethrow or a log call inside it.
        std::string block;
        int depth = 0;
        bool entered = false, closed = false;
        size_t k = static_cast<size_t>(m.position(0)) + m.length(0);
        for (size_t j = i; j < f.code.size() && !closed; ++j, k = 0) {
            const std::string &code = f.code[j];
            for (; k < code.size() && !closed; ++k) {
                const char c = code[k];
                block += c;
                if (c == '{') {
                    ++depth;
                    entered = true;
                } else if (c == '}' && entered && --depth <= 0) {
                    closed = true;
                }
            }
            block += '\n';
        }
        if (!std::regex_search(block, handled_re))
            out.push_back(Finding{
                f.path, static_cast<int>(i + 1), "dora-hyg-catch-all",
                "catch (...) must rethrow, capture, or log the "
                "exception; silent swallowing hides injected faults "
                "and real bugs alike"});
    }
}

/** dora-hyg-assert: Release-compiled-out guards. */
void
ruleHygAssert(const ScannedUnit &f, std::vector<Finding> &out)
{
    if (!anyPrefix(f.path, {"src/", "bench/"}))
        return;
    static const std::regex re(R"((^|[^\w])assert\s*\()");
    emitMatches(f, re, "dora-hyg-assert",
                "assert() vanishes in Release builds (NDEBUG); "
                "invariant guards must use fatal()/panic() "
                "(common/logging.hh) so short sweeps and bad configs "
                "fail loudly everywhere",
                out);
}

// ---------------------------------------------------------------- //
// Robustness rules                                                  //
// ---------------------------------------------------------------- //

/** dora-rob-unchecked-try: discarded try*() fallible-call results. */
void
ruleRobUncheckedTry(const ScannedUnit &f, std::vector<Finding> &out)
{
    if (!anyPrefix(f.path, {"src/", "bench/"}))
        return;
    // A tryRestore/tryDeserialize-style call (the snapshot/journal
    // contract of common/snapshot.hh: failure is the return value,
    // never an exception) whose statement *starts* with the call —
    // optionally behind a (void) cast or an object expression — has
    // its verdict discarded. Calls feeding if/return/assignments
    // never start the statement, so they pass.
    static const std::regex call_re(
        R"(^\s*(\(\s*void\s*\)\s*)?(\w+\s*(::|\.|->)\s*)*try[A-Z]\w*\s*\()");
    for (size_t i = 0; i < f.code.size(); ++i) {
        if (!std::regex_search(f.code[i], call_re))
            continue;
        // Only a statement-initial call discards the result: the
        // previous non-blank code line must have ended a statement
        // or opened a block/control body. This also skips function
        // definitions (repo style puts the return type on the line
        // above the name).
        bool statement_start = true;
        for (size_t j = i; j-- > 0;) {
            const size_t last = f.code[j].find_last_not_of(" \t");
            if (last == std::string::npos)
                continue;
            const char c = f.code[j][last];
            statement_start =
                c == ';' || c == '{' || c == '}' || c == ')';
            break;
        }
        if (!statement_start)
            continue;
        out.push_back(Finding{
            f.path, static_cast<int>(i + 1), "dora-rob-unchecked-try",
            "a try*() call reports failure through its return value; "
            "discarding it turns corrupt snapshots/journals into "
            "silent state divergence — check the result (or NOLINT "
            "with justification)"});
    }
}

// ---------------------------------------------------------------- //
// Performance rules                                                 //
// ---------------------------------------------------------------- //

/** dora-perf-lane-alias: cache-hostile access in lane kernels. */
void
rulePerfLaneAlias(const ScannedUnit &f, std::vector<Finding> &out)
{
    if (!anyPrefix(f.path, {"src/", "bench/"}))
        return;
    const bool has_region =
        std::find(f.laneKernel.begin(), f.laneKernel.end(), 1) !=
        f.laneKernel.end();
    if (!has_region)
        return;
    // Anywhere in a file with lane-kernel regions: std::vector<bool>
    // is a bit-packed proxy container — its elements are not
    // byte-addressable, which blocks vectorization and makes the
    // kernel's scratch buffers alias-hostile.
    static const std::regex vb_re(R"(std::vector<\s*bool\s*>)");
    emitMatches(f, vb_re, "dora-perf-lane-alias",
                "std::vector<bool> is bit-packed (proxy references, "
                "no byte addressing); lane-kernel files must use "
                "std::vector<uint8_t> or AlignedVec so the hot loops "
                "stay vectorizable",
                out);
    // Inside the marked regions: pointer-chasing member access and
    // bounds-checked indexing. The kernels must read flat SoA arrays
    // hoisted into locals before the loop (DESIGN.md §5g) — an `->`
    // re-loads through a pointer the compiler cannot prove
    // loop-invariant, and `.at()` adds a branch per element.
    static const std::regex alias_re(R"(->|\.\s*at\s*\()");
    for (size_t i = 0; i < f.code.size(); ++i) {
        if (i >= f.laneKernel.size() || !f.laneKernel[i])
            continue;
        if (std::regex_search(f.code[i], alias_re))
            out.push_back(Finding{
                f.path, static_cast<int>(i + 1),
                "dora-perf-lane-alias",
                "member access through a pointer (->) or "
                "bounds-checked indexing (.at) inside a lane-kernel "
                "region; hoist the field into a flat local array "
                "before the loop so the kernel stays alias-free and "
                "vectorizable"});
    }
}

} // namespace

void
lineRules(const ScannedUnit &unit, std::vector<Finding> &out)
{
    ruleDetRand(unit, out);
    ruleDetWallclock(unit, out);
    ruleDetUnordered(unit, out);
    ruleDetConfigHash(unit, out);
    ruleConcGlobalState(unit, out);
    ruleConcMutexUnannotated(unit, out);
    ruleHygStream(unit, out);
    ruleHygCatchAll(unit, out);
    ruleHygAssert(unit, out);
    ruleRobUncheckedTry(unit, out);
    rulePerfLaneAlias(unit, out);
}

} // namespace dora::analyze
