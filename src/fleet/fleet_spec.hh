/**
 * @file
 * FleetSpec: a seeded description of a heterogeneous device
 * population, and the per-device sampler that expands it.
 *
 * The fleet tier evaluates governor policy the way it ships: as a
 * rollout across thousands-to-millions of simulated users, not one
 * paper-fidelity phone. A FleetSpec holds the population
 * distributions — silicon speed/voltage binning around the stock
 * MSM8974 tables, thermal-envelope spread, ambient temperature range,
 * page mix, co-runner mix, and fault incidence. sampleDevice() maps
 * (spec, deviceIndex) to a concrete DeviceSpec through a per-device
 * seeded RNG stream, so
 *
 *   - sampling is order-independent: device i draws the same values
 *     whether the campaign visits it first, last, or on a different
 *     worker process;
 *   - any single device is replayable from just (spec.seed, index),
 *     which is what makes fleet campaigns debuggable.
 *
 * Devices bucket into cohorts (co-runner class x ambient band x
 * faulty), the unit of the per-cohort breakdowns in FleetReport.
 */

#ifndef DORA_FLEET_FLEET_SPEC_HH
#define DORA_FLEET_FLEET_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "workloads/kernel.hh"

namespace dora
{

/** Population distributions of a fleet campaign. */
struct FleetSpec
{
    uint64_t seed = 1;      //!< campaign seed; names every RNG stream
    size_t devices = 1000;  //!< population size

    /**
     * Silicon binning: per-device multipliers on the stock DVFS
     * table, drawn as 1 + sd * gaussian and clamped to a plausible
     * binning range (see sampleDevice). freqScale moves every OPP's
     * core/bus clock, voltageScale every rail voltage.
     */
    double freqScaleSd = 0.04;
    double voltageScaleSd = 0.03;
    /** Case/cooling spread: multiplier on junction-to-ambient R. */
    double thermalResistanceSd = 0.10;

    /** Ambient temperature, uniform over [min, max] degC. */
    double ambientMinC = 10.0;
    double ambientMaxC = 40.0;

    /**
     * Co-runner mix weights (normalized at sampling time; all four
     * zero is invalid). "None" is the browser running alone.
     */
    double corunNoneWeight = 0.25;
    double corunLowWeight = 0.25;
    double corunMediumWeight = 0.25;
    double corunHighWeight = 0.25;

    /** Fraction of devices with a combined fault schedule attached. */
    double faultIncidence = 0.0;
};

/**
 * Canonical text rendering of a spec — every double as a hex float —
 * used for the campaign hash. Two specs render identically iff they
 * describe bit-identical populations.
 */
std::string fleetSpecText(const FleetSpec &spec);

/** FNV-1a digest of fleetSpecText(). */
// dora:test-only(FleetSpec hash contract; tests check spec identity)
uint64_t fleetSpecHash(const FleetSpec &spec);

/** fatal() unless @p spec is well-formed (ranges, weights, counts). */
void validateFleetSpec(const FleetSpec &spec);

/** One sampled device of the population. */
struct DeviceSpec
{
    size_t index = 0;       //!< position in the population
    std::string page;       //!< page-corpus name this user loads
    MemIntensity corun = MemIntensity::None;
    double freqScale = 1.0;
    double voltageScale = 1.0;
    double thermalResistanceScale = 1.0;
    double ambientC = 25.0;
    bool faulty = false;
    uint64_t faultSeed = 0; //!< schedule seed when faulty

    /** Stable run label: "fleet<seed>-dev<index>:<page>+<corun>". */
    std::string label(uint64_t campaign_seed) const;

    /** Cohort key: co-runner class x ambient band x faulty. */
    std::string cohort() const;
};

/**
 * Expand device @p index of @p spec. Deterministic and
 * order-independent: the device draws from its own RNG stream seeded
 * by (spec.seed, index) only.
 */
DeviceSpec sampleDevice(const FleetSpec &spec, size_t index);

/** Number of distinct cohort keys a population can produce. */
size_t fleetCohortCount();

} // namespace dora

#endif // DORA_FLEET_FLEET_SPEC_HH
