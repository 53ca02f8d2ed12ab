/**
 * @file
 * Unit conventions and small helpers shared across the simulator.
 *
 * The simulator standardizes on:
 *   - time      : seconds (double) for durations;
 *   - frequency : MHz (double) — matches how the paper and cpufreq tables
 *                 express operating points;
 *   - voltage   : volts (double);
 *   - power     : watts (double); energy: joules (double);
 *   - temperature: degrees Celsius (double).
 *
 * Using doubles with documented units (rather than wrapper types) follows
 * the surrounding-simulator idiom (gem5 does the same).
 */

#ifndef DORA_COMMON_UNITS_HH
#define DORA_COMMON_UNITS_HH

#include <cstdint>

namespace dora
{

/** Cache-line size used across the memory hierarchy (bytes). */
constexpr uint64_t kCacheLineBytes = 64;

/** Clamp helper that avoids pulling <algorithm> into every header. */
constexpr double
clampTo(double v, double lo, double hi)
{
    return v < lo ? lo : (v > hi ? hi : v);
}

} // namespace dora

#endif // DORA_COMMON_UNITS_HH
