#include "browser/page_load.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/snapshot.hh"
#include "common/units.hh"
#include "obs/trace.hh"

namespace dora
{

const std::string PageLoad::kDoneName = "done";

namespace
{

/** Instructions of @p phase that the main and the helper thread run. */
struct ThreadWork
{
    double main = 0.0;
    double helper = 0.0;
};

ThreadWork
threadWork(const RenderPhase &phase)
{
    // The serial share runs on the main thread; the parallel share is
    // split evenly between the two.
    const double parallel = phase.instructions * phase.parallelFraction;
    return {(phase.instructions - parallel) + parallel / 2.0,
            parallel / 2.0};
}

/** Core cycles the slower thread needs for @p work of @p phase. */
double
floorCycles(const RenderPhase &phase, const ThreadWork &work)
{
    return std::max(work.main, work.helper) * phase.baseCpi;
}

} // namespace

RenderThreadTask::RenderThreadTask(PageLoad &owner, Role role)
    : owner_(owner), role_(role),
      name_(owner.page().name +
            (role == Role::Main ? ":render-main" : ":render-helper"))
{
}

TaskDemand
RenderThreadTask::demand(double now_sec)
{
    (void)now_sec;
    return owner_.demandFor(role_);
}

void
RenderThreadTask::advance(const TickResult &result, double dt_sec)
{
    owner_.advanceFor(role_, result, dt_sec);
}

bool
RenderThreadTask::finished() const
{
    return owner_.finished();
}

void
RenderThreadTask::reset()
{
    // PageLoad::reset() restores both facades; individual facade resets
    // are idempotent via the owner.
    owner_.reset();
}

PageLoad::PageLoad(const WebPage &page, const RenderCostModel &cost,
                   uint64_t stream_salt)
    : page_(page), cost_(cost), streamSalt_(stream_salt),
      phases_(cost.phases(page)),
      main_(*this, RenderThreadTask::Role::Main),
      helper_(*this, RenderThreadTask::Role::Helper)
{
    if (phases_.empty())
        fatal("PageLoad: page '%s' produced no phases", page.name.c_str());
    reset();
}

void
PageLoad::rebuildStreams()
{
    // Both browser threads reference the same data region (shared DOM,
    // style structures, layer buffers), so they share lines in the L2.
    const uint64_t base_line = (1 + streamSalt_) << 28;
    const AddressStreamSpec &spec = phases_[std::min(
        phase_, phases_.size() - 1)].stream;
    // dora:stream-tag-shared(page: namespace shared with the salt)
    Rng seed("page:" + page_.name + "/salt:" +
             std::to_string(streamSalt_));
    mainStream_ = std::make_unique<AddressStream>(spec, base_line,
                                                  seed.fork("main"));
    helperStream_ = std::make_unique<AddressStream>(spec, base_line,
                                                    seed.fork("helper"));
}

void
PageLoad::reset()
{
    phase_ = 0;
    elapsedSec_ = 0.0;
    remainMain_.resize(phases_.size());
    remainHelper_.resize(phases_.size());
    for (size_t p = 0; p < phases_.size(); ++p) {
        const ThreadWork work = threadWork(phases_[p]);
        remainMain_[p] = work.main;
        remainHelper_[p] = work.helper;
    }
    rebuildStreams();
}

bool
PageLoad::finished() const
{
    return phase_ >= phases_.size();
}

double
PageLoad::loadTimeSec() const
{
    if (!finished())
        panic("PageLoad::loadTimeSec: page '%s' still loading",
              page_.name.c_str());
    return elapsedSec_;
}

double
PageLoad::floorRemainingSec(double core_mhz) const
{
    double cycles = 0.0;
    for (size_t p = phase_; p < phases_.size(); ++p)
        cycles += floorCycles(phases_[p],
                              {remainMain_[p], remainHelper_[p]});
    return cycles / (core_mhz * 1e6);
}

double
PageLoad::loadFloorSec(const WebPage &page, const RenderCostModel &cost,
                       double core_mhz)
{
    double cycles = 0.0;
    for (const RenderPhase &phase : cost.phases(page))
        cycles += floorCycles(phase, threadWork(phase));
    return cycles / (core_mhz * 1e6);
}

const std::string &
PageLoad::currentPhaseName() const
{
    return finished() ? kDoneName : phases_[phase_].name;
}

TaskDemand
PageLoad::demandFor(RenderThreadTask::Role role)
{
    TaskDemand d;
    if (finished())
        return d;

    const bool is_main = role == RenderThreadTask::Role::Main;
    const double remaining =
        is_main ? remainMain_[phase_] : remainHelper_[phase_];
    if (remaining <= 0.0)
        return d;  // waiting at the phase barrier

    const RenderPhase &phase = phases_[phase_];
    d.active = true;
    d.baseCpi = phase.baseCpi;
    d.memRefsPerInstr = phase.refsPerInstr;
    d.mlp = phase.mlp;
    d.dutyCycle = 1.0;
    d.instrBudget = remaining;
    d.activityFactor = phase.activityFactor;
    d.stream = is_main ? mainStream_.get() : helperStream_.get();
    return d;
}

void
PageLoad::advanceFor(RenderThreadTask::Role role, const TickResult &result,
                     double dt_sec)
{
    if (finished())
        return;
    const bool is_main = role == RenderThreadTask::Role::Main;
    if (is_main)
        elapsedSec_ += dt_sec;

    double &remaining = is_main ? remainMain_[phase_]
                                : remainHelper_[phase_];
    remaining = std::max(0.0, remaining - result.instructions);
    maybeAdvancePhase();
}

void
PageLoad::setTrace(RunTrace *trace, double base_sec)
{
    trace_ = trace;
    traceBaseSec_ = base_sec;
    if (trace_ && !finished())
        trace_->begin(traceBaseSec_ + elapsedSec_, "page", "phase",
                      {{"phase", phases_[phase_].name}});
}

void
PageLoad::snapshot(SnapshotWriter &w) const
{
    w.beginSection("page", 1);
    w.putU64(static_cast<uint64_t>(phase_));
    w.putDouble(elapsedSec_);
    w.putDoubles(remainMain_);
    w.putDoubles(remainHelper_);
    mainStream_->snapshot(w);
    helperStream_->snapshot(w);
}

bool
PageLoad::tryRestore(SnapshotReader &r)
{
    if (!r.beginSection("page", 1))
        return false;
    uint64_t phase;
    double elapsed;
    std::vector<double> remain_main, remain_helper;
    if (!r.getU64(&phase) || !r.getDouble(&elapsed) ||
        !r.getDoubles(&remain_main) || !r.getDoubles(&remain_helper))
        return false;
    if (phase > phases_.size() || remain_main.size() != phases_.size() ||
        remain_helper.size() != phases_.size())
        return false;
    if (!mainStream_->tryRestore(r) || !helperStream_->tryRestore(r))
        return false;
    phase_ = static_cast<size_t>(phase);
    elapsedSec_ = elapsed;
    remainMain_ = std::move(remain_main);
    remainHelper_ = std::move(remain_helper);
    return true;
}

void
PageLoad::maybeAdvancePhase()
{
    while (!finished() && remainMain_[phase_] <= 0.0 &&
           remainHelper_[phase_] <= 0.0) {
        if (trace_)
            trace_->end(traceBaseSec_ + elapsedSec_, "page", "phase");
        ++phase_;
        if (!finished()) {
            // Same data region, new locality shape for the new phase.
            mainStream_->reshape(phases_[phase_].stream);
            helperStream_->reshape(phases_[phase_].stream);
            if (trace_)
                trace_->begin(traceBaseSec_ + elapsedSec_, "page",
                              "phase",
                              {{"phase", phases_[phase_].name}});
        } else if (trace_) {
            trace_->instant(traceBaseSec_ + elapsedSec_, "page",
                            "load_complete",
                            {{"load_time_sec", elapsedSec_}});
        }
    }
}

} // namespace dora
