/**
 * @file
 * Status-message and error helpers in the gem5 spirit.
 *
 * fatal() is for user errors (bad configuration, impossible request) and
 * exits with status 1; panic() is for internal invariant violations and
 * aborts. inform()/warn() report status without stopping the run.
 */

#ifndef DORA_COMMON_LOGGING_HH
#define DORA_COMMON_LOGGING_HH

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace dora
{

/** Verbosity levels accepted by setLogLevel(). */
enum class LogLevel
{
    Quiet,   //!< suppress inform(); warnings still shown
    Normal,  //!< default: inform() and warn() shown
    Verbose  //!< additionally show debugLog() messages
};

/** Set the process-wide verbosity. Thread-compatible, not thread-safe. */
void setLogLevel(LogLevel level);

/** Current process-wide verbosity. */
LogLevel logLevel();

/** Informative status message (printf-style). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Non-fatal warning about questionable conditions (printf-style).
 *
 * Repeated warnings are rate-limited per format string: after
 * warnEmitLimit() emissions of the same fmt the sink stops printing and
 * counts instead, so a parallel sweep hitting the same condition in
 * every cell cannot flood stderr. Suppression totals are queryable
 * below and surfaced by MetricsRegistry::snapshotText().
 */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Emissions allowed per distinct warn() format string. */
constexpr uint64_t warnEmitLimit() { return 5; }

/** Suppression tally for one warn() format string. */
struct WarnSuppressionEntry
{
    std::string key;      //!< the format string
    uint64_t emitted;     //!< lines actually printed
    uint64_t suppressed;  //!< calls swallowed after the limit
};

/** Per-key tallies, sorted by key. Thread-safe. */
std::vector<WarnSuppressionEntry> warnSuppressionEntries();

/** Total warn() calls suppressed across all keys. Thread-safe. */
uint64_t warnSuppressedTotal();

/** Forget all suppression state (tests). Thread-safe. */
// dora:test-only(test hook: each test case starts with a fresh rate limit)
void resetWarnSuppression();

/** Extra-chatty diagnostics, only shown at LogLevel::Verbose. */
void debugLog(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Unrecoverable user error: print the message and exit(1).
 * Use for bad configuration or arguments, not for library bugs.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Internal invariant violation: print the message and abort().
 * Use only for conditions that indicate a bug in this library.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace dora

#endif // DORA_COMMON_LOGGING_HH
