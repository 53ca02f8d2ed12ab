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
 * chunk. The units fan out through one parallelFor() on `jobs` threads
 * (jobs=1 is its serial loop on the calling thread).
 *
 * forEachUnit() hands each unit's result to the caller's consumer in
 * unit order as soon as every earlier unit has landed, and measure()
 * returns its results in cell order, so results are bit-identical at
 * every job count. A flat grid dispatches its multi-cell gangs first.
 * The fleet's process arm (exec/proc/supervisor.hh
 * forEachUnitInWorkers) runs the same units in worker subprocesses.
 */

#ifndef DORA_SIM_CELL_EXECUTOR_HH
#define DORA_SIM_CELL_EXECUTOR_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "exec/ordered_sink.hh"
#include "exec/thread_pool.hh"
#include "runner/run_context.hh"

namespace dora
{

/** Per-cell counters of measure(); null = not counted. */
struct CellCampaign
{
    const char *queuedMetric = nullptr;
    const char *doneMetric = nullptr;
};

class CellExecutor
{
  public:
    /** Builds cell @p i of the grid, on the thread that runs it. */
    using CellFn = std::function<RunCell(size_t)>;
    /** Receives cell @p i's measurement. */
    using MeasuredFn = std::function<void(size_t, RunMeasurement &&)>;

    /** @p jobs threads; 0 resolves to defaultJobCount(). */
    explicit CellExecutor(unsigned jobs);

    /** The resolved thread count (never 0). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run cells [first, first + count) on the calling thread as
     * planned gangs; @p measured gets each cell's measurement in cell
     * order as soon as every earlier cell has one.
     */
    void runCells(size_t first, size_t count, const CellFn &make_cell,
                  const MeasuredFn &measured) const;

    /**
     * Fan units [0, n) out on the threads and hand each result to
     * @p consume in unit order, in this process.
     */
    template <typename U>
    void forEachUnit(size_t n, const std::function<U(size_t)> &run_unit,
                     const std::function<void(size_t, U &&)> &consume) const
    {
        OrderedSink<U> sink(consume, 0);
        parallelFor(
            n, [&](size_t u) { sink.deliver(u, run_unit(u)); }, jobs_);
    }

    /**
     * The grid [0, n) as per-cell measurements in grid order. Each
     * planned gang runs as one unit and writes its own cells' slots.
     */
    std::vector<RunMeasurement> measure(size_t n, const CellFn &make_cell,
                                        const CellCampaign &campaign) const;

  private:
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

    unsigned jobs_;
};

} // namespace dora

#endif // DORA_SIM_CELL_EXECUTOR_HH
