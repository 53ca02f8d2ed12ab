#include "stats/cdf.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "stats/neumaier.hh"

namespace dora
{

void
EmpiricalCdf::push(double x)
{
    samples_.push_back(x);
    sealed_ = false;
}

void
EmpiricalCdf::push(const std::vector<double> &xs)
{
    if (xs.empty())
        return;
    samples_.reserve(samples_.size() + xs.size());
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    sealed_ = false;
}

void
EmpiricalCdf::seal()
{
    if (sealed_)
        return;
    std::sort(samples_.begin(), samples_.end());
    sealed_ = true;
}

void
EmpiricalCdf::requireSealed(const char *op) const
{
    if (!sealed_)
        panic("EmpiricalCdf::%s on an unsealed CDF — call seal() after "
              "the last push() (queries must be pure reads so a CDF "
              "can be shared across threads)",
              op);
}

double
EmpiricalCdf::fractionAtOrBelow(double x) const
{
    if (samples_.empty())
        return 0.0;
    requireSealed("fractionAtOrBelow");
    auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
        static_cast<double>(samples_.size());
}

double
EmpiricalCdf::quantile(double q) const
{
    if (samples_.empty())
        panic("EmpiricalCdf::quantile on empty sample set");
    requireSealed("quantile");
    if (q <= 0.0)
        return samples_.front();
    if (q >= 1.0)
        return samples_.back();
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples_.size()))) - 1;
    return samples_[std::min(rank, samples_.size() - 1)];
}

double
EmpiricalCdf::min() const
{
    if (samples_.empty())
        panic("EmpiricalCdf::min on empty sample set");
    requireSealed("min");
    return samples_.front();
}

double
EmpiricalCdf::max() const
{
    if (samples_.empty())
        panic("EmpiricalCdf::max on empty sample set");
    requireSealed("max");
    return samples_.back();
}

double
EmpiricalCdf::mean() const
{
    if (samples_.empty())
        return 0.0;
    // Neumaier-compensated: a naive accumulation loses low-order
    // bits when samples span magnitudes (e.g. PPW outliers next to
    // near-zero scores in a fleet population), and the mean then
    // depends on sample order — which breaks byte-identity between
    // aggregation orders that are otherwise equivalent.
    NeumaierSum sum;
    for (double s : samples_)
        sum.add(s);
    return sum.value() / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>>
EmpiricalCdf::series(int points) const
{
    std::vector<std::pair<double, double>> out;
    if (samples_.empty() || points < 2)
        return out;
    requireSealed("series");
    const double lo = samples_.front();
    const double hi = samples_.back();
    out.reserve(static_cast<size_t>(points));
    for (int i = 0; i < points; ++i) {
        const double x = lo + (hi - lo) * i / (points - 1);
        out.emplace_back(x, fractionAtOrBelow(x));
    }
    return out;
}

} // namespace dora
