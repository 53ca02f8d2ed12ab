/**
 * @file
 * Deterministic parallel-for / parallel-map primitives for the
 * experiment engine.
 *
 * Every figure and training campaign in this reproduction is a set of
 * independent, deterministic simulations (each run constructs its own
 * SoC, power model, RNG streams, and fault injector). The primitives
 * here fan such sets out across a fixed number of worker threads while
 * guaranteeing that
 *
 *   - results are delivered in index order (results[i] == fn(i)), so a
 *     parallel sweep assembles the *same* tables as the serial loop;
 *   - a job count of 1 executes the exact legacy serial path in the
 *     calling thread — no threads, no atomics, no reordering;
 *   - exceptions thrown by the body are captured and the one from the
 *     lowest index is rethrown in the calling thread after every index
 *     has been attempted (deterministic propagation).
 *
 * The job count is taken from, in order of precedence: an explicit
 * argument, the `--jobs N` command-line flag (benches), the DORA_JOBS
 * environment variable, and finally std::thread::hardware_concurrency.
 *
 * Determinism contract: the body must not touch shared mutable state.
 * What little the codebase has (log sinks, the bundle-cache file) is
 * made thread-safe separately; simulations themselves are self-
 * contained, which is what makes jobs=N bit-identical to jobs=1 (see
 * DESIGN.md §5a; the ParallelDeterminism suite enforces it).
 */

#ifndef DORA_EXEC_THREAD_POOL_HH
#define DORA_EXEC_THREAD_POOL_HH

#include <cstddef>
#include <functional>
#include <vector>

namespace dora
{

/** Hardware thread count, never less than 1. */
unsigned hardwareJobs();

/**
 * The process-default job count: $DORA_JOBS when set, else
 * hardwareJobs(). Like `--jobs`, $DORA_JOBS must be an integer in
 * [1, 1024] or the process fatal()s; an empty value warns and counts
 * as unset.
 */
unsigned defaultJobCount();

/**
 * Job count for a bench binary: honours `--jobs N` / `--jobs=N` on the
 * command line, falling back to defaultJobCount(). fatal() on a
 * malformed or out-of-range value. Other arguments are the caller's
 * to check: every bench rejects unknown ones with
 * cliRejectUnknownArgs().
 */
unsigned jobCountFromArgs(int argc, char **argv);

/**
 * Run fn(i) for every i in [0, n) on min(@p jobs, n) threads
 * (0 = defaultJobCount()): the caller and min(jobs, n) - 1 threads
 * started for this call pull indices from one shared counter, and
 * the call joins those threads before it returns. jobs <= 1 or n <= 1
 * runs the exact serial loop in the calling thread. If any invocation
 * throws, the exception from the lowest index is rethrown here after
 * every index has been attempted.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                 unsigned jobs = 0);

/**
 * Map [0, n) through @p fn with deterministic result ordering:
 * result[i] == fn(i) regardless of thread count or completion order.
 * R must be default-constructible. Exception semantics as
 * parallelFor().
 */
template <typename R>
std::vector<R>
parallelMap(size_t n, const std::function<R(size_t)> &fn,
            unsigned jobs = 0)
{
    std::vector<R> results(n);
    parallelFor(
        n, [&results, &fn](size_t i) { results[i] = fn(i); }, jobs);
    return results;
}

} // namespace dora

#endif // DORA_EXEC_THREAD_POOL_HH
