/**
 * @file
 * A page-load in flight: the browser's main and helper render threads
 * advancing through the phase sequence with per-phase barriers.
 *
 * Matches the paper's methodology: Firefox occupies two cores (mobile
 * thread-level parallelism hovers around 2), so each phase's work is
 * split into a serial share executed by the main thread and a parallel
 * share divided between the two threads; both must finish a phase
 * before the next begins. Both threads reference the same address
 * region, so they share lines in the L2 exactly as two browser threads
 * do.
 */

#ifndef DORA_BROWSER_PAGE_LOAD_HH
#define DORA_BROWSER_PAGE_LOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "browser/render_cost.hh"
#include "browser/web_page.hh"
#include "sim/task.hh"

namespace dora
{

class PageLoad;
class RunTrace;

/**
 * Task facade for one browser thread (main or helper) of a PageLoad.
 */
class RenderThreadTask : public Task
{
  public:
    enum class Role { Main, Helper };

    RenderThreadTask(PageLoad &owner, Role role);

    TaskDemand demand(double now_sec) override;
    void advance(const TickResult &result, double dt_sec) override;
    bool finished() const override;
    const std::string &name() const override { return name_; }
    void reset() override;

  private:
    PageLoad &owner_;
    Role role_;
    std::string name_;
};

/**
 * Owns the phase state of one page load and exposes the two thread
 * tasks. Construct once per experiment run; reset() restarts the load
 * (fresh streams, zero elapsed time).
 */
class PageLoad
{
  public:
    /**
     * @param page        page to load
     * @param cost        phase cost model
     * @param stream_salt disambiguates address-space bases and RNG
     *                    seeds between concurrent PageLoads (tests)
     */
    PageLoad(const WebPage &page, const RenderCostModel &cost,
             uint64_t stream_salt = 0);

    /** Main-thread task (pin to the first browser core). */
    Task &mainTask() { return main_; }

    /** Helper-thread task (pin to the second browser core). */
    Task &helperTask() { return helper_; }

    /** True when every phase's work is fully retired. */
    bool finished() const;

    /**
     * Wall-clock load time in seconds; only meaningful once finished()
     * (panics otherwise).
     */
    double loadTimeSec() const;

    /** Elapsed load time so far (seconds). */
    double elapsedSec() const { return elapsedSec_; }

    /**
     * Load-time floor of the work left, at a pinned @p core_mhz: the
     * sum over the current and later phases of the slower thread's
     * remaining instructions times the phase's base CPI, over the core
     * clock. A thread retires at most core_mhz * 1e6 * dt / baseCpi
     * instructions a tick (stalls only add CPI) and phases run one
     * after the other, so the load cannot finish sooner (DESIGN.md
     * §5l). 0 once finished.
     */
    double floorRemainingSec(double core_mhz) const;

    /**
     * floorRemainingSec() of a load of @p page under @p cost that has
     * not started, without building one.
     */
    static double loadFloorSec(const WebPage &page,
                               const RenderCostModel &cost,
                               double core_mhz);

    /** Name of the phase currently executing ("done" when finished). */
    const std::string &currentPhaseName() const;

    /** The page being loaded. */
    const WebPage &page() const { return page_; }

    /** Restart the load from scratch. */
    void reset();

    /**
     * Attach a trace sink (null detaches): emits begin/end events for
     * every render phase, timestamped at @p base_sec plus the elapsed
     * load time, so phase durations land on the run's simulated
     * timeline. Call after binding the load, before the first tick.
     */
    void setTrace(RunTrace *trace, double base_sec);

    /**
     * Serialize load progress (phase cursor, remaining work, streams).
     * Trace attachment is deliberately excluded: snapshots are gated to
     * untraced runs (RunContext refuses otherwise).
     */
    void snapshot(SnapshotWriter &w) const;

    /**
     * Restore into the same PageLoad object the snapshot was taken
     * from (streams restore in place). All-or-nothing.
     */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

  private:
    friend class RenderThreadTask;

    TaskDemand demandFor(RenderThreadTask::Role role);
    void advanceFor(RenderThreadTask::Role role, const TickResult &result,
                    double dt_sec);
    void maybeAdvancePhase();
    void rebuildStreams();

    const WebPage &page_;  // dora:snapshot-exclude(construction identity)
    RenderCostModel cost_;  // dora:snapshot-exclude(derived from page spec)
    uint64_t streamSalt_;  // dora:snapshot-exclude(construction identity)
    // dora:snapshot-exclude(fixed phase table from the page spec)
    std::vector<RenderPhase> phases_;

    size_t phase_ = 0;
    std::vector<double> remainMain_;
    std::vector<double> remainHelper_;
    double elapsedSec_ = 0.0;

    // dora:snapshot-exclude(observer hook, rebound by the harness)
    RunTrace *trace_ = nullptr;  //!< null when tracing is disabled
    // dora:snapshot-exclude(observer hook, rebound by the harness)
    double traceBaseSec_ = 0.0;

    std::unique_ptr<AddressStream> mainStream_;
    std::unique_ptr<AddressStream> helperStream_;

    RenderThreadTask main_;  // dora:snapshot-exclude(stateless facade)
    RenderThreadTask helper_;  // dora:snapshot-exclude(stateless facade)

    static const std::string kDoneName;
};

} // namespace dora

#endif // DORA_BROWSER_PAGE_LOAD_HH
