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
 * forEachUnitInWorkers() is the typed campaign arm on top: it names
 * the journal after the campaign hash, decodes every payload into the
 * unit type, hands results over in unit order, re-raises a drain
 * signal and recomputes quarantined units in-process. The fleet
 * engine (fleet/campaign.hh) is its one production caller.
 *
 * Precondition: the caller forks from a quiescent process — no
 * parallelFor() threads in flight (forked children inherit only the
 * calling thread; a lock held by another thread would deadlock the
 * child).
 */

#ifndef DORA_EXEC_PROC_SUPERVISOR_HH
#define DORA_EXEC_PROC_SUPERVISOR_HH

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "exec/ordered_sink.hh"
#include "obs/trace.hh"

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

/**
 * Run units [0, @p n) on @p workers subprocesses through runProcSweep()
 * and hand each result to @p consume in unit order, in this process
 * (exec/ordered_sink.hh). A unit crosses the pipe and the journal as
 * its own U::serialize() bytes and is rebuilt with
 * U::tryDeserialize(); a payload that does not decode is fatal.
 *
 * With @p journal_stem set, completed units are journaled to
 * `<stem>.<campaign_hash>.jrn` and a rerun replays them through the
 * same in-order delivery instead of recomputing them. On SIGINT or
 * SIGTERM the sweep drains and the signal is re-raised, so a script
 * sees the conventional status and a rerun resumes. A unit the
 * supervisor quarantined (its worker kept dying on it) is recomputed
 * here, so the campaign still comes back whole and a deterministic
 * crash surfaces in a debuggable process. @p what prefixes the
 * diagnostics.
 */
template <typename U>
void
forEachUnitInWorkers(size_t n, unsigned workers,
                     const std::string &journal_stem,
                     uint64_t campaign_hash, const char *what,
                     const std::function<U(size_t)> &run_unit,
                     const std::function<void(size_t, U &&)> &consume)
{
    if (n == 0)
        return;
    OrderedSink<U> sink(consume, 0);
    ProcSweepConfig proc;
    proc.workers = workers;
    proc.campaignHash = campaign_hash;
    if (!journal_stem.empty())
        proc.journalPath =
            journal_stem + "." + hexU64(campaign_hash) + ".jrn";
    // The completion hook is the only consumer of payloads, so the
    // supervisor's memory is O(workers + reorder window).
    proc.onUnitComplete = [&](uint64_t unit, const std::string &payload) {
        U value;
        if (!value.tryDeserialize(payload))
            fatal("%s: unit %llu payload from the process tier does "
                  "not decode (journal from an older build?); delete "
                  "%s and re-run",
                  what, static_cast<unsigned long long>(unit),
                  proc.journalPath.c_str());
        sink.deliver(unit, std::move(value));
    };

    const ProcSweepReport report = runProcSweep(
        proc, n, [&](uint64_t unit) { return run_unit(unit).serialize(); });
    if (report.drained) {
        // Progress (if journaled) is durable; die by the original
        // signal so scripts see the conventional status and the
        // truncated-trace flush still runs. A rerun resumes.
        warn("%s: campaign interrupted by signal %d with %llu units "
             "durable; re-run to resume",
             what, report.drainSignal,
             static_cast<unsigned long long>(report.unitsRun +
                                             report.unitsResumed));
        ::raise(report.drainSignal);
        fatal("%s: campaign interrupted", what);  // signal was ignored
    }
    for (uint64_t u = 0; u < n; ++u)
        if (!report.completed[u]) {
            warn("%s: unit %llu was quarantined by the process tier; "
                 "recomputing in-process",
                 what, static_cast<unsigned long long>(u));
            sink.deliver(u, run_unit(u));
        }
}

} // namespace dora

#endif // DORA_EXEC_PROC_SUPERVISOR_HH
