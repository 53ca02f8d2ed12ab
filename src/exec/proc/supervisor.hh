/**
 * @file
 * Crash-resilient process-level execution tier (DESIGN.md §5f).
 *
 * runProcSweep() shards a campaign of independent work units across
 * forked worker subprocesses. Each worker receives unit indices over a
 * pipe (exec/proc/wire.hh frames), evaluates the caller's unit
 * function, and streams the serialized result back. The supervisor
 * side implements the robustness ladder:
 *
 *   - heartbeat watchdog: a working unit must both beat regularly and
 *     finish inside its timeout, or its worker is SIGKILLed;
 *   - bounded retry: a crashed / hung / errored unit is re-dispatched
 *     with exponential backoff, up to maxAttempts;
 *   - poison-unit quarantine: a unit that exhausts its attempts is
 *     reported in the sweep report, never fatal to the campaign;
 *   - graceful drain: SIGINT/SIGTERM stops dispatching, lets in-flight
 *     units finish and journal, then returns with drained set (a
 *     second signal kills the in-flight work immediately);
 *   - results journal: with journalPath set, every completed unit is
 *     appended + fsync'd (exec/proc/journal.hh), so a campaign killed
 *     at any instant — including SIGKILL of the supervisor itself —
 *     resumes from the journal without recomputing finished units.
 *
 * Determinism: results are keyed by unit index, so the report is
 * independent of worker count, scheduling, and crash/retry history —
 * a unit's payload is byte-identical whether computed in-process, by
 * any worker, on any attempt, or replayed from the journal.
 *
 * Precondition: the caller forks from a quiescent process — no
 * parallelFor() threads in flight (forked children inherit only the
 * calling thread; a lock held by another thread would deadlock the
 * child).
 */

#ifndef DORA_EXEC_PROC_SUPERVISOR_HH
#define DORA_EXEC_PROC_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dora
{

/** Tunables of the process-level sweep tier. */
struct ProcSweepConfig
{
    /** Worker subprocesses to fork (>= 1). */
    uint32_t workers = 1;

    /** Attempts per unit before quarantine (>= 1). */
    uint32_t maxAttempts = 3;

    /** Wall-clock budget for one unit attempt (seconds). */
    double unitTimeoutSec = 600.0;

    /** Worker heartbeat period while a unit is running (seconds). */
    double heartbeatIntervalSec = 0.25;

    /** Silence longer than this while busy means a hung worker. */
    double heartbeatTimeoutSec = 15.0;

    /** Backoff before attempt k+1: base * 2^(k-1) seconds. */
    double retryBackoffSec = 0.05;

    /** Append-only results journal path; empty disables journaling. */
    std::string journalPath;

    /**
     * Identity of the campaign (config hash + unit-count digest). A
     * journal written under a different hash is refused on resume.
     */
    uint64_t campaignHash = 0;

    /**
     * Streaming completion hook, called once per newly completed or
     * journal-resumed unit (after the unit is journaled, in the
     * supervisor's single control thread). It is the only consumer of
     * unit payloads: the supervisor keeps none, so its memory stays
     * O(open units) instead of O(campaign results).
     */
    std::function<void(uint64_t unit, const std::string &payload)>
        onUnitComplete;
};

/** A unit that exhausted its attempts. */
struct ProcUnitFailure
{
    uint64_t unit = 0;
    uint32_t attempts = 0;
    std::string lastError;
};

/** Outcome of one runProcSweep() campaign. */
struct ProcSweepReport
{
    /** Unit-indexed completion flags. */
    std::vector<uint8_t> completed;

    /** Units that exhausted maxAttempts (reported, not fatal). */
    std::vector<ProcUnitFailure> quarantined;

    uint64_t workerCrashes = 0;  //!< crash/hang/timeout kills observed
    uint64_t retries = 0;        //!< re-dispatches after a failure
    uint64_t unitsResumed = 0;   //!< satisfied from the journal
    uint64_t unitsRun = 0;       //!< executed by workers this call

    /** True when SIGINT/SIGTERM interrupted the campaign. */
    bool drained = false;
    int drainSignal = 0;         //!< the signal that triggered drain

    /** Every unit completed (no quarantine, no drain gap). */
    bool allCompleted() const
    {
        for (const uint8_t c : completed)
            if (!c)
                return false;
        return true;
    }
};

/** Evaluates one unit to its serialized result payload. */
using ProcUnitFn = std::function<std::string(uint64_t unit)>;

/**
 * Run @p unit_count units through @p config.workers subprocesses.
 * @p run_unit executes inside the worker (inherited via fork — plain
 * closures work; no task serialization is involved) and must return
 * the unit's serialized, deterministic payload.
 */
ProcSweepReport runProcSweep(const ProcSweepConfig &config,
                             uint64_t unit_count,
                             const ProcUnitFn &run_unit);

} // namespace dora

#endif // DORA_EXEC_PROC_SUPERVISOR_HH
