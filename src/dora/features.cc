#include "dora/features.hh"

namespace dora
{

std::vector<double>
buildFeatureVector(const WebPageFeatures &page, double l2_mpki,
                   double core_mhz, double bus_mhz, double corun_util)
{
    return {
        page.domNodes, page.classAttrs, page.hrefAttrs,
        page.aTags,    page.divTags,    l2_mpki,
        core_mhz,      bus_mhz,         corun_util,
    };
}

} // namespace dora
