#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace dora
{

namespace
{

/** Atomic max for doubles (CAS loop; contention is negligible). */
void
atomicMax(std::atomic<double> &target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (value > current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

/** Atomic min for doubles. */
void
atomicMin(std::atomic<double> &target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (value < current &&
           !target.compare_exchange_weak(current, value,
                                         std::memory_order_relaxed)) {
    }
}

/** Atomic add for doubles (fetch_add on atomic<double> needs C++20). */
void
atomicAdd(std::atomic<double> &target, double value)
{
    double current = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(current, current + value,
                                         std::memory_order_relaxed)) {
    }
}

} // namespace

MetricHistogram::MetricHistogram()
    : min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity())
{
}

void
MetricHistogram::record(double value)
{
    int bucket = 0;
    if (value > 0.0 && std::isfinite(value)) {
        // Bucket by binary exponent, offset so values around 1e-9
        // (nanoseconds expressed in seconds) still spread out.
        const int exp = std::ilogb(value);
        bucket = std::clamp(exp + 32, 0, kBuckets - 1);
    }
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    atomicAdd(sum_, value);
    atomicMin(min_, value);
    atomicMax(max_, value);
}

double
MetricHistogram::mean() const
{
    const uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

uint64_t
MetricHistogram::bucketCount(int bucket) const
{
    if (bucket < 0 || bucket >= kBuckets)
        return 0;
    return buckets_[bucket].load(std::memory_order_relaxed);
}

MetricsRegistry &
MetricsRegistry::global()
{
    // Function-local singleton: every instrument inside is atomic and
    // the registry maps are GUARDED_BY(mutex_).
    // NOLINTNEXTLINE(dora-conc-global-state)
    static MetricsRegistry registry;
    return registry;
}

MetricCounter &
MetricsRegistry::counter(const std::string &name)
{
    MutexLock lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<MetricCounter>();
    return *slot;
}

MetricGauge &
MetricsRegistry::gauge(const std::string &name)
{
    MutexLock lock(mutex_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<MetricGauge>();
    return *slot;
}

MetricHistogram &
MetricsRegistry::histogram(const std::string &name)
{
    MutexLock lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<MetricHistogram>();
    return *slot;
}

std::string
MetricsRegistry::snapshotText() const
{
    std::ostringstream out;
    out.precision(6);
    MutexLock lock(mutex_);
    // std::map iteration is name-sorted, which is the determinism
    // contract: identical state renders to identical text.
    for (const auto &[name, c] : counters_)
        out << "counter " << name << " " << c->value() << "\n";
    for (const auto &[name, g] : gauges_)
        out << "gauge " << name << " " << g->value() << "\n";
    for (const auto &[name, h] : histograms_) {
        out << "histogram " << name << " count=" << h->count()
            << " mean=" << h->mean();
        if (h->count() > 0)
            out << " min=" << h->min() << " max=" << h->max();
        out << "\n";
    }
    for (const auto &entry : warnSuppressionEntries()) {
        if (entry.suppressed == 0)
            continue;
        out << "counter log.warn.suppressed{key=\"" << entry.key
            << "\"} " << entry.suppressed << "\n";
    }
    if (const uint64_t total = warnSuppressedTotal())
        out << "counter log.warn.suppressed_total " << total << "\n";
    return out.str();
}

} // namespace dora
