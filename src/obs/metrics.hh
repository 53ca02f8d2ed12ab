/**
 * @file
 * Process-wide metrics registry: counters, gauges, and histograms with
 * deterministic snapshot ordering.
 *
 * Metrics answer "how much / how fast" questions about a whole process
 * (jobs executed, tick rates, warn suppression) and are intentionally
 * separate from the structured trace layer (obs/trace.hh), which
 * answers "what happened when" per run. Traced artifacts must be
 * byte-identical at any `--jobs` count, so anything wall-clock-derived
 * lives here — metrics snapshots go to stderr, never into the
 * deterministic trace files.
 *
 * Recording is lock-free (relaxed atomics) so instruments can sit on
 * warm paths: a counter add is one atomic increment, a histogram
 * record is an exponent extraction plus two atomic adds. Registration
 * takes a mutex but callers cache the returned reference (instrument
 * addresses are stable for the life of the registry).
 */

#ifndef DORA_OBS_METRICS_HH
#define DORA_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace dora
{

/** Monotonic event count. */
class MetricCounter
{
  public:
    void add(uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-written instantaneous value (queue depth, temperature...). */
class MetricGauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Power-of-two bucketed histogram over positive values; negative and
 * zero samples land in the first bucket. Tracks count, sum, min, and
 * max exactly; the buckets give the shape.
 */
class MetricHistogram
{
  public:
    static constexpr int kBuckets = 64;

    void record(double value);

    uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    double sum() const { return sum_.load(std::memory_order_relaxed); }

    /** Mean of all recorded values (0 when empty). */
    double mean() const;

    /** Smallest recorded value (+inf when empty). */
    double min() const { return min_.load(std::memory_order_relaxed); }

    /** Largest recorded value (-inf when empty). */
    double max() const { return max_.load(std::memory_order_relaxed); }

    uint64_t bucketCount(int bucket) const;

    void reset();

  private:
    std::atomic<uint64_t> buckets_[kBuckets] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> min_;
    std::atomic<double> max_;

  public:
    MetricHistogram();
};

/**
 * Name-keyed registry. Instruments are created on first lookup and
 * live as long as the registry; snapshotText() renders every
 * instrument sorted by name, so two snapshots of identical state are
 * identical text.
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry. */
    static MetricsRegistry &global();

    MetricCounter &counter(const std::string &name);
    MetricGauge &gauge(const std::string &name);
    MetricHistogram &histogram(const std::string &name);

    /**
     * Deterministically ordered text rendering of every instrument,
     * one line each, plus the log sink's warn-suppression counters
     * (common/logging.hh) so suppressed spam stays visible.
     */
    std::string snapshotText() const;

  private:
    mutable Mutex mutex_;
    std::map<std::string, std::unique_ptr<MetricCounter>> counters_
        GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<MetricGauge>> gauges_
        GUARDED_BY(mutex_);
    std::map<std::string, std::unique_ptr<MetricHistogram>> histograms_
        GUARDED_BY(mutex_);
};

} // namespace dora

#endif // DORA_OBS_METRICS_HH
