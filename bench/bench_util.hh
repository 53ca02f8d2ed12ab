/**
 * @file
 * Shared helpers for the figure/table benches: cached model-bundle
 * loading and common formatting.
 *
 * Every bench is a standalone binary that regenerates one table or
 * figure of the paper and prints it as an aligned text table (plus a
 * CSV next to the working directory when DORA_BENCH_CSV=1).
 */

#ifndef DORA_BENCH_BENCH_UTIL_HH
#define DORA_BENCH_BENCH_UTIL_HH

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "exec/thread_pool.hh"
#include "harness/bundle_cache.hh"
#include "obs/trace.hh"

namespace dora
{

/**
 * Resolve and announce the parallelism of a bench binary: `--jobs N`
 * on the command line, else $DORA_JOBS, else the hardware thread
 * count. Results are bit-identical at any job count.
 */
inline unsigned
benchJobs(int argc, char **argv)
{
    const unsigned jobs = jobCountFromArgs(argc, argv);
    std::cerr << "[bench] jobs=" << jobs
              << (jobs == 1 ? " (serial)" : "") << "\n";
    return jobs;
}

/**
 * Resolve the process-tier worker count of a fleet campaign
 * (dora-fleet): `--workers N` / `--workers=N` on the command line,
 * else $DORA_WORKERS, else 0 (in-process execution). Results are
 * bit-identical at any worker count; workers > 0 additionally buys
 * crash isolation and journal resume (see exec/proc).
 */
inline unsigned
benchWorkers(int argc, char **argv)
{
    long workers = 0;
    const char *from = nullptr;
    if (const char *env = envNonEmpty("DORA_WORKERS")) {
        workers = cliParseInt(env, "$DORA_WORKERS", 0, 1024);
        from = "$DORA_WORKERS";
    }
    if (const auto value = cliFlagValue(argc, argv, "--workers")) {
        workers = cliParseInt(*value, "--workers", 0, 1024);
        from = "--workers";
    }
    if (workers > 0)
        std::cerr << "[bench] workers=" << workers << " (" << from
                  << "; process tier with journal resume)\n";
    return static_cast<unsigned>(workers);
}

/**
 * Split a comma-separated flag value (`a,b,c`) into its non-empty
 * pieces.
 */
inline std::vector<std::string>
splitGovernors(const std::string &text)
{
    std::vector<std::string> names;
    std::string current;
    for (char c : text) {
        if (c == ',') {
            if (!current.empty())
                names.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    if (!current.empty())
        names.push_back(current);
    return names;
}

/**
 * Load (or train + cache) the model bundle, announcing what happened.
 * First call in a fresh checkout trains for a minute or two; later
 * benches reuse the cache file.
 */
inline std::shared_ptr<const ModelBundle>
benchBundle()
{
    // Resolved before the line starts: an empty $DORA_MODEL_CACHE
    // warns, and the warning must not split the line.
    const std::string cache = defaultBundleCachePath();
    std::cerr << "[bench] loading DORA models (cache: " << cache << ")\n";
    return loadOrTrainBundle();
}

/** Emit @p table under @p title; also CSV when DORA_BENCH_CSV=1. */
inline void
emitTable(const std::string &bench, const std::string &title,
          const TextTable &table)
{
    printBanner(std::cout, title);
    table.print(std::cout);
    if (const char *env = std::getenv("DORA_BENCH_CSV");
        env && std::string(env) == "1") {
        const std::string path = bench + ".csv";
        if (table.writeCsv(path))
            std::cerr << "[bench] wrote " << path << "\n";
    }
}

} // namespace dora

#endif // DORA_BENCH_BENCH_UTIL_HH
