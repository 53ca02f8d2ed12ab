/**
 * @file
 * Process-wide exact-ticks escape hatch.
 *
 * The simulator's default execution mode is *adaptive*: converged
 * memory-sample results are reused across quiescent ticks (see
 * mem/miss_rate_estimator.hh) and the harness fast-forwards between
 * event-horizon boundaries (see sim/simulator.hh). Both layers honor
 * this flag: when exact-ticks mode is on, every tick performs the full
 * Monte-Carlo cache walk and the harness runs the legacy 1-tick loop,
 * reproducing the pre-adaptive numbers bit for bit.
 *
 * The flag is resolved once from the DORA_EXACT_TICKS environment
 * variable ("1" = exact, "0" or unset = adaptive; any other value is
 * fatal) and can be overridden programmatically (bench
 * `--exact-ticks` flags, A/B tests) *before* the components that
 * consult it are constructed — Soc reads it at construction time.
 */

#ifndef DORA_COMMON_EXACT_TICKS_HH
#define DORA_COMMON_EXACT_TICKS_HH

namespace dora
{

/**
 * True when the process runs in exact-ticks (legacy) mode: adaptive
 * sample reuse and macro-tick batching are disabled everywhere.
 */
bool exactTicksMode();

/**
 * Force exact-ticks mode on or off for the rest of the process
 * (overrides the environment). Components consult the flag at
 * construction, so call this before building a Soc/ExperimentRunner.
 */
void setExactTicksMode(bool exact);

/**
 * Scan @p argv for a `--exact-ticks` flag (benches); when present,
 * calls setExactTicksMode(true). Returns true when the flag was seen.
 * Unknown arguments are left untouched for other parsers.
 */
bool parseExactTicksFlag(int argc, char **argv);

} // namespace dora

#endif // DORA_COMMON_EXACT_TICKS_HH
