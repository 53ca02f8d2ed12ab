/**
 * @file
 * CellExecutor: the one dispatch behind every campaign grid — the
 * comparison harness, the trainer's measurement campaign and the fleet
 * engine all run their cells through it.
 *
 * A cell (runner/run_context.hh RunCell) is one simulated device under
 * one governor. Cells that share every run input but the governor form
 * a gang, and a gang simulates each distinct governor trajectory once:
 * its first unresolved cell leads, and the others ride it for as long
 * as they request the leader's OPP indices (DESIGN.md §5m). A cell is
 * built once on the calling thread to plan the gangs, and again where
 * it runs. Each gang leader runs as one plain RunContext
 * (`while (!done()) advance(); finish()`). A flat grid's work unit is
 * one gang; a caller may run larger units of its own, such as a fleet
 * chunk. The units fan out through exactly one tier:
 *
 *   workers == 0  one parallelFor() over the units on `jobs` threads
 *                 (jobs=1 is its serial loop on the calling thread);
 *   workers  > 0  one runProcSweep() over the units in worker
 *                 subprocesses: it names the resume journal, drains
 *                 and re-raises SIGINT/SIGTERM, recomputes quarantined
 *                 units in-process and decodes every payload or dies.
 *
 * On both tiers each unit's result reaches the caller's consumer in
 * unit order, in the calling process, as soon as every earlier unit
 * has landed. Results are therefore bit-identical under every
 * (jobs, workers) combination, and memory holds only the units that
 * finished ahead of an earlier one. A flat grid dispatches its
 * multi-cell gangs first and still returns its results in cell order.
 */

#ifndef DORA_SIM_CELL_EXECUTOR_HH
#define DORA_SIM_CELL_EXECUTOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hh"
#include "exec/thread_pool.hh"
#include "runner/run_context.hh"

namespace dora
{

/**
 * Execution tiers: pure throughput policy, never identity. A jobs of 0
 * resolves once, in the CellExecutor constructor, to defaultJobCount().
 */
struct CellTiers
{
    unsigned jobs = 0;     //!< threads (unused when workers > 0)
    unsigned workers = 0;  //!< worker subprocesses; 0 = in-process
    /** Process-tier journal `<stem>.<hash>.jrn`; empty = none. */
    std::string journalStem;
};

/** Identity and counters of one campaign. */
struct CellCampaign
{
    std::string name;  //!< log prefix: "harness", "trainer", "fleet"
    uint64_t hash = 0; //!< journal identity (process tier only)

    /** Per-cell counters of measure(); null = not counted. */
    const char *queuedMetric = nullptr;
    const char *doneMetric = nullptr;
};

/** The process-tier wire form of a unit or cell result. */
template <typename T>
struct WireCodec
{
    std::function<std::string(const T &)> encode;
    std::function<bool(std::string_view, T *)> decode;
};

class CellExecutor
{
  public:
    /** Builds cell @p i of the grid, on the thread that runs it. */
    using CellFn = std::function<RunCell(size_t)>;
    /** Receives cell @p i's measurement. */
    using MeasuredFn = std::function<void(size_t, RunMeasurement &&)>;

    explicit CellExecutor(CellTiers tiers);

    /** The resolved tiers (no zeros left). */
    const CellTiers &tiers() const { return tiers_; }

    /**
     * Run cells [first, first + count) on the calling thread as
     * planned gangs; @p measured gets each cell's measurement in cell
     * order as soon as every earlier cell has one.
     */
    void runCells(size_t first, size_t count, const CellFn &make_cell,
                  const MeasuredFn &measured) const;

    /**
     * Fan units [0, n) out through the tier and hand each result to
     * @p consume in unit order, in this process. @p codec carries a
     * unit across the process tier.
     */
    template <typename U>
    void forEachUnit(size_t n, const std::function<U(size_t)> &run_unit,
                     const std::function<void(size_t, U &&)> &consume,
                     const WireCodec<U> &codec,
                     const CellCampaign &campaign) const;

    /**
     * The grid [0, n) as per-cell measurements in grid order. Each
     * unit is one planned gang. The journal identity is @p campaign's
     * hash plus n and the unit plan.
     */
    std::vector<RunMeasurement> measure(size_t n, const CellFn &make_cell,
                                        CellCampaign campaign) const;

  private:
    template <typename U>
    class OrderedSink;

    /**
     * Cells, ascending, that share every run input but the governor:
     * the first unresolved one leads, the others ride it.
     */
    using Gang = std::vector<size_t>;

    /**
     * Plan cells [first, first + count) into gangs: build each cell
     * once, on the calling thread, to read its gang key; group cells
     * with equal keys in first-cell order; and put gangs of more than
     * one cell first.
     */
    std::vector<Gang> planGangs(size_t first, size_t count,
                                const CellFn &make_cell) const;

    /**
     * Run @p gang on the calling thread from freshly built cells, one
     * leader run per pass, until every cell has a measurement;
     * @p measured gets them in ascending cell order.
     */
    void runGang(const Gang &gang, const CellFn &make_cell,
                 const MeasuredFn &measured) const;

    /**
     * The process-tier arm of forEachUnit(). @p accept decodes and
     * consumes one payload (false: it does not decode); @p recompute
     * runs and consumes one unit in-process.
     */
    void runInWorkers(
        size_t n, const CellCampaign &campaign,
        const std::function<std::string(uint64_t)> &encode_unit,
        const std::function<bool(uint64_t, const std::string &)> &accept,
        const std::function<void(uint64_t)> &recompute) const;

    /** Journal identity of a grid of @p n cells run as @p gangs. */
    static uint64_t planCampaignHash(uint64_t hash, size_t n,
                                     const std::vector<Gang> &gangs);

    CellTiers tiers_;
};

/**
 * Hands unit results to a consumer in unit order, parking the ones
 * that land early. Safe to feed from several pool threads. The
 * consumer runs under the lock, on whichever thread completed the
 * next-in-line unit: holding it is what keeps consumer calls one at a
 * time and in order.
 */
template <typename U>
class CellExecutor::OrderedSink
{
  public:
    OrderedSink(const std::function<void(size_t, U &&)> &consume,
                size_t next)
        : consume_(consume), next_(next)
    {
    }

    void deliver(size_t unit, U &&value) EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        parked_.emplace(unit, std::move(value));
        while (!parked_.empty() && parked_.begin()->first == next_) {
            consume_(next_++, std::move(parked_.begin()->second));
            parked_.erase(parked_.begin());
        }
    }

  private:
    const std::function<void(size_t, U &&)> &consume_;
    Mutex mutex_;
    size_t next_ GUARDED_BY(mutex_);
    std::map<size_t, U> parked_ GUARDED_BY(mutex_);
};

template <typename U>
void
CellExecutor::forEachUnit(size_t n,
                          const std::function<U(size_t)> &run_unit,
                          const std::function<void(size_t, U &&)> &consume,
                          const WireCodec<U> &codec,
                          const CellCampaign &campaign) const
{
    if (n == 0)
        return;
    OrderedSink<U> sink(consume, 0);
    if (tiers_.workers == 0) {
        parallelFor(
            n, [&](size_t u) { sink.deliver(u, run_unit(u)); },
            tiers_.jobs);
        return;
    }
    runInWorkers(
        n, campaign,
        [&](uint64_t u) { return codec.encode(run_unit(u)); },
        [&](uint64_t u, const std::string &payload) {
            U value;
            if (!codec.decode(payload, &value))
                return false;
            sink.deliver(u, std::move(value));
            return true;
        },
        [&](uint64_t u) { sink.deliver(u, run_unit(u)); });
}

} // namespace dora

#endif // DORA_SIM_CELL_EXECUTOR_HH
