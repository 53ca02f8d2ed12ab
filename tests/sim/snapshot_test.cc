/**
 * @file
 * Snapshot/restore contract tests over real simulator state: a
 * checkpoint taken mid-run and restored onto the same objects must
 * continue bit-for-bit identically to the uninterrupted run, and
 * mismatched restores must be rejected without touching state. The
 * same holds one level up, for a whole RunContext rewound mid-run.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/snapshot.hh"
#include "dora/predictive_governor.hh"
#include "governor/governor.hh"
#include "mem/address_stream.hh"
#include "runner/run_context.hh"
#include "sim/simulator.hh"
#include "workloads/kernel.hh"

namespace dora
{
namespace
{

/** Bitwise equality for doubles (NaN-safe, distinguishes -0.0). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/**
 * A looping compute/memory task with checkpointable state, following
 * the documented pattern: Simulator::snapshot covers the kernel, the
 * task owner checkpoints demand state and the address stream.
 */
class LoopTask : public Task
{
  public:
    LoopTask()
        : name_("loop"), stream_(makeSpec(), 0, Rng(1234))
    {
    }

    TaskDemand demand(double) override
    {
        TaskDemand d;
        d.active = true;
        d.baseCpi = 1.2;
        d.memRefsPerInstr = 0.15;
        d.instrBudget = 1e9;
        d.stream = &stream_;
        return d;
    }

    void advance(const TickResult &result, double) override
    {
        done_ += result.instructions;
    }

    bool finished() const override { return false; }
    const std::string &name() const override { return name_; }
    void reset() override { done_ = 0.0; }

    double doneInstructions() const { return done_; }

    void snapshot(SnapshotWriter &w) const
    {
        w.beginSection("task", 1);
        w.putDouble(done_);
        stream_.snapshot(w);
    }

    [[nodiscard]] bool tryRestore(SnapshotReader &r)
    {
        if (!r.beginSection("task", 1))
            return false;
        double done;
        if (!r.getDouble(&done) || !stream_.tryRestore(r))
            return false;
        done_ = done;
        return true;
    }

  private:
    static AddressStreamSpec makeSpec()
    {
        AddressStreamSpec spec;
        spec.workingSetBytes = 256 * 1024;  // misses in L1, fits L2
        spec.hotFraction = 0.8;
        return spec;
    }

    std::string name_;
    AddressStream stream_;
    double done_ = 0.0;
};

/** Everything a continuation can diverge in, captured bit-exactly. */
struct EndState
{
    uint64_t ticks = 0;
    double elapsed = 0.0;
    double energy = 0.0;
    double temp = 0.0;
    double instructions = 0.0;
    double l2Misses = 0.0;
    uint64_t switches = 0;
    size_t freqIndex = 0;
};

EndState
capture(const Simulator &sim, const LoopTask &task)
{
    EndState s;
    s.ticks = sim.tickCount();
    s.elapsed = sim.soc().elapsedSeconds();
    s.energy = sim.power().totalEnergyJ();
    s.temp = sim.power().temperatureC();
    s.instructions = task.doneInstructions();
    s.l2Misses = sim.soc().mem().totalCounters().l2Misses;
    s.switches = sim.soc().switchCount();
    s.freqIndex = sim.soc().frequencyIndex();
    return s;
}

void
expectSameBits(const EndState &a, const EndState &b)
{
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_TRUE(sameBits(a.elapsed, b.elapsed));
    EXPECT_TRUE(sameBits(a.energy, b.energy));
    EXPECT_TRUE(sameBits(a.temp, b.temp));
    EXPECT_TRUE(sameBits(a.instructions, b.instructions));
    EXPECT_TRUE(sameBits(a.l2Misses, b.l2Misses));
    EXPECT_EQ(a.switches, b.switches);
    EXPECT_EQ(a.freqIndex, b.freqIndex);
}

class SimSnapshotTest : public ::testing::Test
{
  protected:
    SimSnapshotTest()
        : soc_(Soc::nexus5()),
          power_(DevicePowerConfig{}, LeakageModel::msm8974Truth()),
          sim_(soc_, power_, SimConfig{})
    {
        sim_.bindTask(0, &task_);
    }

    /** Run @p ticks with the interactive governor in the loop. */
    void run(int ticks)
    {
        for (int i = 0; i < ticks; ++i) {
            if (i % 20 == 0) {
                GovernorView view;
                view.nowSec = sim_.nowSec();
                view.freqIndex = soc_.frequencyIndex();
                view.freqTable = &soc_.freqTable();
                view.totalUtilization = 0.3 + 0.6 * ((i / 20) % 2);
                soc_.setFrequencyIndex(
                    governor_.decideFrequencyIndex(view));
            }
            sim_.step();
        }
    }

    std::string checkpoint() const
    {
        SnapshotWriter w;
        sim_.snapshot(w);
        governor_.snapshot(w);
        task_.snapshot(w);
        return w.finish();
    }

    [[nodiscard]] bool restore(const std::string &bytes)
    {
        SnapshotReader r(bytes);
        return r.checksumOk() && sim_.tryRestore(r) &&
            governor_.tryRestore(r) && task_.tryRestore(r) && r.atEnd();
    }

    Soc soc_;
    DevicePower power_;
    Simulator sim_;
    LoopTask task_;
    InteractiveGovernor governor_;
};

TEST_F(SimSnapshotTest, RoundTripIsByteIdentical)
{
    run(100);
    const std::string snap1 = checkpoint();
    ASSERT_TRUE(restore(snap1));
    const std::string snap2 = checkpoint();
    EXPECT_EQ(snap1, snap2);  // snapshot -> restore -> snapshot
}

TEST_F(SimSnapshotTest, RestoredRunContinuesBitIdentically)
{
    // Warm up past the estimator's convergence so the checkpoint
    // carries non-trivial cached-phase and warmth state.
    run(150);
    const std::string snap = checkpoint();

    run(200);
    const EndState uninterrupted = capture(sim_, task_);

    ASSERT_TRUE(restore(snap));
    run(200);
    const EndState resumed = capture(sim_, task_);

    expectSameBits(uninterrupted, resumed);
}

TEST_F(SimSnapshotTest, RestoreRejectsCorruptBuffer)
{
    run(50);
    std::string snap = checkpoint();
    snap[snap.size() / 3] = static_cast<char>(snap[snap.size() / 3] ^ 1);
    SnapshotReader r(snap);
    EXPECT_FALSE(r.checksumOk());
}

TEST_F(SimSnapshotTest, RestoreRejectsForeignStream)
{
    run(50);
    const std::string snap = checkpoint();

    // A different task owns a different stream (new streamId): its
    // restore must fail rather than silently adopt foreign identity.
    LoopTask other;
    SnapshotReader r(snap);
    ASSERT_TRUE(r.checksumOk());
    ASSERT_TRUE(sim_.tryRestore(r));
    ASSERT_TRUE(governor_.tryRestore(r));
    EXPECT_FALSE(other.tryRestore(r));
}

TEST_F(SimSnapshotTest, SocRejectsMismatchedCoreCount)
{
    run(10);
    SnapshotWriter w;
    soc_.snapshot(w);
    const std::string snap = w.finish();

    SocConfig small;
    small.numCores = 2;
    Soc other = Soc::nexus5(small);
    SnapshotReader r(snap);
    EXPECT_FALSE(other.tryRestore(r));
}

TEST(RunContextSnapshot, MidRunRewindReplaysBitIdentically)
{
    // Snapshot a plain run mid-flight, run it to completion, rewind
    // it, and replay: the replayed measurement must be bit-identical
    // to the first pass.
    const WorkloadSpec w =
        WorkloadSets::kernelOnly(KernelCatalog::byName("kmeans"));
    RunCell cell =
        makeRunCell(ExperimentConfig{}, w.page, w.kernel, w.label(),
                    std::make_unique<InteractiveGovernor>());
    RunContext run(cell.config, cell.params);
    for (int quantum = 0; quantum < 10; ++quantum) {
        ASSERT_FALSE(run.done());
        run.advance();
    }
    ASSERT_FALSE(run.done());

    SnapshotWriter writer;
    run.snapshot(writer);
    const std::string bytes = writer.finish();

    while (!run.done())
        run.advance();
    const RunMeasurement first = run.finish();

    SnapshotReader r(bytes);
    ASSERT_TRUE(r.checksumOk());
    ASSERT_TRUE(run.tryRestore(r));
    ASSERT_FALSE(run.done());
    while (!run.done())
        run.advance();
    const RunMeasurement replay = run.finish();

    EXPECT_EQ(runMeasurementText(first), runMeasurementText(replay));
}

TEST(GovernorSnapshot, StatelessDefaultRoundTrips)
{
    PerformanceGovernor gov;
    SnapshotWriter w;
    gov.snapshot(w);
    const std::string bytes = w.finish();
    SnapshotReader r(bytes);
    EXPECT_TRUE(gov.tryRestore(r));
    EXPECT_TRUE(r.atEnd());
}

TEST(GovernorSnapshot, FixedGovernorRestoresPinnedIndex)
{
    FixedGovernor gov(3);
    SnapshotWriter w;
    gov.snapshot(w);
    const std::string bytes = w.finish();

    gov.setFrequencyIndex(7);
    SnapshotReader r(bytes);
    ASSERT_TRUE(gov.tryRestore(r));
    FreqTable table = FreqTable::msm8974();
    GovernorView view;
    view.freqTable = &table;
    EXPECT_EQ(gov.decideFrequencyIndex(view), 3u);
}

TEST(GovernorSnapshot, PredictiveGovernorRoundTrips)
{
    // Null bundle: degraded mode, but the snapshot path must still
    // round-trip (the fingerprinted usable flag matches).
    PredictiveGovernor gov(nullptr);
    SnapshotWriter w;
    gov.snapshot(w);
    const std::string bytes = w.finish();
    SnapshotReader r(bytes);
    EXPECT_TRUE(gov.tryRestore(r));
    EXPECT_TRUE(r.atEnd());
}

} // namespace
} // namespace dora
