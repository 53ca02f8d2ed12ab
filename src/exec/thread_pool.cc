#include "exec/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <string>
#include <system_error>
#include <thread>
#include <utility>

#include "common/cli.hh"
#include "common/logging.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"
#include "obs/metrics.hh"

namespace dora
{

namespace
{

/** The exception of the lowest throwing index of one parallelFor(). */
class FirstError
{
  public:
    void offer(size_t index, std::exception_ptr error) EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        if (!error_ || index < index_) {
            error_ = std::move(error);
            index_ = index;
        }
    }

    std::exception_ptr take() EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        return std::move(error_);
    }

  private:
    Mutex mutex_;
    size_t index_ GUARDED_BY(mutex_) = 0;
    std::exception_ptr error_ GUARDED_BY(mutex_);
};

} // namespace

unsigned
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
defaultJobCount()
{
    if (const char *env = envNonEmpty("DORA_JOBS"))
        return static_cast<unsigned>(
            cliParseInt(env, "$DORA_JOBS", 1, 1024));
    return hardwareJobs();
}

unsigned
jobCountFromArgs(int argc, char **argv)
{
    // cliFlagValue fatal()s on a trailing bare `--jobs` (previously it
    // silently fell through to the default) and makes the last
    // occurrence win so wrapper scripts can append overrides.
    if (const auto value = cliFlagValue(argc, argv, "--jobs"))
        return static_cast<unsigned>(
            cliParseInt(*value, "--jobs", 1, 1024));
    return defaultJobCount();
}

void
parallelFor(size_t n, const std::function<void(size_t)> &fn,
            unsigned jobs)
{
    if (jobs == 0)
        jobs = defaultJobCount();
    if (jobs <= 1 || n <= 1) {
        // Exact legacy path: plain serial loop, natural exception flow.
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // Cached registry lookups: one-time name resolution, then each job
    // costs two relaxed atomic ops and a clock read. Wall-clock
    // observations stay in the metrics registry (stderr only) — never
    // in trace artifacts, which must be byte-identical at any job
    // count.
    static MetricCounter &jobs_run =
        MetricsRegistry::global().counter("exec.jobs");
    static MetricHistogram &job_wall_sec =
        MetricsRegistry::global().histogram("exec.job_wall_sec");
    static MetricGauge &queue_depth =
        MetricsRegistry::global().gauge("exec.queue_depth");

    std::atomic<size_t> next{0};
    FirstError first;
    const auto drain = [&] {
        for (;;) {
            const size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            queue_depth.set(static_cast<double>(n - i - 1));
            const auto job_start = std::chrono::steady_clock::now();
            try {
                fn(i);
            } catch (...) {
                first.offer(i, std::current_exception());
            }
            job_wall_sec.record(std::chrono::duration<double>(
                std::chrono::steady_clock::now() - job_start).count());
            jobs_run.add();
        }
    };

    // The caller is the last of the min(jobs, n) workers.
    const size_t workers = std::min<size_t>(jobs, n);
    std::vector<std::thread> threads;
    threads.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) {
        try {
            threads.emplace_back(drain);
        } catch (const std::system_error &e) {
            // The caller and the threads already started still cover
            // every index, so run on with fewer rather than abort.
            warn("parallelFor: started %zu of %zu threads: %s",
                 threads.size() + 1, workers, e.what());
            break;
        }
    }
    drain();
    for (std::thread &thread : threads)
        thread.join();
    if (const std::exception_ptr error = first.take())
        std::rethrow_exception(error);
}

} // namespace dora
