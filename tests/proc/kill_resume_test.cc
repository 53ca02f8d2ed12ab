/**
 * @file
 * Crash-resilience acceptance tests for the typed campaign arm of the
 * process tier (exec/proc forEachUnitInWorkers, DESIGN.md §5f), with
 * real comparison-harness cells as its units:
 *
 *  - running the cells on N workers is byte-identical to the
 *    in-process harness grid for N in {1, 4};
 *  - a supervisor SIGKILLed mid-campaign leaves a journal from which a
 *    rerun resumes, and the resumed results are byte-identical.
 *
 * The fleet suite drives the same arm through FleetEngine; these cases
 * pin the arm itself for a unit type other than the fleet's: journal
 * naming after the campaign hash, the payload round trip, and in-order
 * delivery of replayed units. Identity is checked through
 * runMeasurementText() (hex-float rendering), so any single-ULP
 * divergence fails. scripts/ci.sh runs this binary in its `crash`
 * stage.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "exec/proc/supervisor.hh"
#include "harness/comparison.hh"
#include "obs/metrics.hh"
#include "workloads/kernel.hh"

namespace fs = std::filesystem;

namespace dora
{
namespace
{

/** Cheap kernel-only workloads (no page => short 1 s windows). */
std::vector<WorkloadSpec>
cheapWorkloads()
{
    return {
        WorkloadSets::kernelOnly(KernelCatalog::byName("kmeans")),
        WorkloadSets::kernelOnly(KernelCatalog::byName("srad2")),
        WorkloadSets::kernelOnly(KernelCatalog::byName("backprop")),
    };
}

/** Model-free governors so no training campaign is needed. */
const std::vector<std::string> kGovernors = {"interactive",
                                             "performance", "ondemand"};

/** Names this campaign's journal file. */
constexpr uint64_t kCampaignHash = 0x6b696c6c72657375ull;

/** One cell's measurement as a process-arm unit: its text rendering. */
struct CellText
{
    std::string text;

    std::string serialize() const { return text; }
    bool tryDeserialize(std::string_view bytes)
    {
        text = bytes;
        return true;
    }
};

/** One string per cell of the in-process harness grid, in grid order. */
std::vector<std::string>
harnessTexts()
{
    ComparisonHarness harness(ExperimentConfig{}, nullptr, 2);
    const auto records = harness.runAll(cheapWorkloads(), kGovernors);
    std::vector<std::string> texts;
    for (const auto &r : records)
        for (const auto &g : kGovernors)
            texts.push_back(runMeasurementText(r.measurement(g)));
    return texts;
}

/**
 * The same grid with one harness cell per unit, run on the process
 * tier; one string per cell, in grid order.
 * @param workers    worker subprocesses (>= 1)
 * @param stem       journal stem ("" disables journaling)
 */
std::vector<std::string>
processTexts(unsigned workers, const std::string &stem)
{
    const auto workloads = cheapWorkloads();
    const std::function<CellText(size_t)> run_unit = [&](size_t u) {
        const std::string &governor = kGovernors[u % kGovernors.size()];
        ComparisonHarness harness(ExperimentConfig{}, nullptr, 1);
        const auto records = harness.runAll(
            {workloads[u / kGovernors.size()]}, {governor});
        return CellText{runMeasurementText(
            records.front().measurement(governor))};
    };
    std::vector<std::string> texts;
    forEachUnitInWorkers<CellText>(
        workloads.size() * kGovernors.size(), workers, stem,
        kCampaignHash, "kill_resume", run_unit,
        [&](size_t u, CellText &&unit) {
            EXPECT_EQ(u, texts.size());
            texts.push_back(std::move(unit.text));
        });
    return texts;
}

/** Remove journal files left by a previous run of @p stem. */
void
clearJournals(const std::string &stem)
{
    const fs::path dir = fs::path(stem).parent_path();
    const std::string prefix = fs::path(stem).filename().string();
    if (!fs::exists(dir))
        return;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().filename().string().rfind(prefix, 0) == 0)
            fs::remove(entry.path());
}

/** The journal file for @p stem, or "" while none exists yet. */
std::string
findJournal(const std::string &stem)
{
    const fs::path dir = fs::path(stem).parent_path();
    const std::string prefix = fs::path(stem).filename().string();
    if (fs::exists(dir))
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.path().filename().string().rfind(prefix, 0) == 0)
                return entry.path().string();
    return "";
}

std::string
uniqueStem(const char *name)
{
    return ::testing::TempDir() + "kill_resume_" + name;
}

TEST(KillResume, WorkerCountsAreByteIdentical)
{
    const auto baseline = harnessTexts();
    for (const unsigned workers : {1u, 4u}) {
        // Append (not char* + string&& operator+) to dodge a GCC 12
        // -Werror=restrict false positive in the inlined temporary.
        std::string name = "w";
        name += std::to_string(workers);
        const std::string stem = uniqueStem(name.c_str());
        clearJournals(stem);
        const auto proc = processTexts(workers, stem);
        ASSERT_EQ(proc.size(), baseline.size());
        for (size_t i = 0; i < baseline.size(); ++i)
            EXPECT_EQ(proc[i], baseline[i])
                << "workers=" << workers << " cell " << i;
        EXPECT_EQ(findJournal(stem),
                  stem + "." + hexU64(kCampaignHash) + ".jrn");
        clearJournals(stem);
    }
}

TEST(KillResume, SupervisorSigkillThenJournalResumeByteIdentical)
{
    const std::string stem = uniqueStem("supervisor_kill");
    clearJournals(stem);
    const auto baseline = harnessTexts();

    // First attempt runs in a forked child so SIGKILL models a hard
    // supervisor death (no destructors, no drain).
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        processTexts(2, stem);
        ::_exit(0);
    }

    // Kill as soon as the journal holds at least one record (header
    // is 36 bytes), i.e. mid-campaign with real progress on disk.
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::seconds(60);
    std::string journal;
    while (std::chrono::steady_clock::now() < deadline) {
        journal = findJournal(stem);
        std::error_code ec;
        if (!journal.empty() && fs::file_size(journal, ec) > 36 && !ec)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_FALSE(journal.empty())
        << "campaign never journaled a record";
    ::kill(child, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);

    // Resume in-process: the journal must contribute completed cells
    // and the final results must match the uninterrupted baseline.
    const uint64_t resumed_before =
        MetricsRegistry::global().counter("proc.units_resumed")
            .value();
    const auto resumed = processTexts(2, stem);
    const uint64_t resumed_after =
        MetricsRegistry::global().counter("proc.units_resumed")
            .value();
    EXPECT_GE(resumed_after, resumed_before + 1)
        << "rerun recomputed everything instead of resuming";
    ASSERT_EQ(resumed.size(), baseline.size());
    for (size_t i = 0; i < baseline.size(); ++i)
        EXPECT_EQ(resumed[i], baseline[i]) << "cell " << i;
    clearJournals(stem);
}

} // namespace
} // namespace dora
