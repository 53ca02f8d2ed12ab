/**
 * @file
 * The model feature vector — Table I of the paper.
 *
 *   X1 number of DOM tree nodes        (static, from the page)
 *   X2 number of class attributes      (static)
 *   X3 number of href attributes       (static)
 *   X4 number of "a" tags              (static)
 *   X5 number of "div" tags            (static)
 *   X6 shared L2 cache MPKI            (runtime, perf counters)
 *   X7 core frequency                  (the candidate OPP)
 *   X8 memory bus frequency            (slaved to X7)
 *   X9 core utilization of the co-scheduled task (runtime)
 */

#ifndef DORA_DORA_FEATURES_HH
#define DORA_DORA_FEATURES_HH

#include <cstddef>
#include <vector>

#include "browser/web_page.hh"

namespace dora
{

/** Number of model inputs (Table I). */
constexpr size_t kNumFeatures = 9;

/**
 * Assemble the X1..X9 vector for one prediction or training sample.
 *
 * @param page        static page features (X1-X5)
 * @param l2_mpki     X6: shared L2 MPKI over the last interval
 * @param core_mhz    X7: candidate core frequency
 * @param bus_mhz     X8: memory bus frequency of that OPP
 * @param corun_util  X9: co-scheduled task core utilization
 */
std::vector<double> buildFeatureVector(const WebPageFeatures &page,
                                       double l2_mpki, double core_mhz,
                                       double bus_mhz, double corun_util);

} // namespace dora

#endif // DORA_DORA_FEATURES_HH
