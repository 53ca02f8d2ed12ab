/**
 * @file
 * Empirical CDFs.
 *
 * Figure 5 (model prediction-error CDFs) and Figure 7b (per-governor load
 * time CDFs) of the paper are regenerated through EmpiricalCdf.
 */

#ifndef DORA_STATS_CDF_HH
#define DORA_STATS_CDF_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace dora
{

/**
 * Exact empirical cumulative distribution over a sample set.
 *
 * Samples are accumulated with push(); seal() sorts them and freezes
 * the distribution for querying. Order-dependent queries (quantile,
 * min/max, fractionAtOrBelow, series) panic on an unsealed CDF.
 *
 * The build/query split exists for thread-safety: queries on a sealed
 * CDF are pure reads, so one sealed instance can be shared across
 * parallelMap workers with no synchronization. The previous design
 * sorted lazily under const, which was a data race in exactly that
 * sharing pattern.
 */
class EmpiricalCdf
{
  public:
    /** Add one sample (unseals). */
    void push(double x);

    /** Add many samples (unseals). */
    void push(const std::vector<double> &xs);

    /**
     * Sort the samples and freeze the distribution for querying.
     * Idempotent; a later push() unseals and requires a re-seal.
     */
    void seal();

    /** True once seal() has run with no push() after it. */
    bool sealed() const { return sealed_; }

    /** Number of samples (valid sealed or not). */
    size_t count() const { return samples_.size(); }

    /** Fraction of samples <= x (0 when empty). Requires seal(). */
    double fractionAtOrBelow(double x) const;

    /**
     * The q-quantile (q in [0,1]) using nearest-rank; q=1 returns the
     * maximum. Requires at least one sample and seal().
     */
    double quantile(double q) const;

    /** Smallest sample. Requires at least one sample and seal(). */
    double min() const;

    /** Largest sample. Requires at least one sample and seal(). */
    double max() const;

    /** Mean of the samples (0 when empty; valid sealed or not). */
    double mean() const;

    /**
     * Evaluate the CDF at @p points evenly spaced values covering
     * [min, max]; returns (x, fraction<=x) pairs for table emission.
     * Requires seal().
     */
    std::vector<std::pair<double, double>> series(int points) const;

  private:
    void requireSealed(const char *op) const;

    std::vector<double> samples_;
    bool sealed_ = true; // an empty CDF is trivially sorted
};

} // namespace dora

#endif // DORA_STATS_CDF_HH
