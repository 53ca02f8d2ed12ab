/**
 * @file
 * Self-checking fleet rollout study: the paper's governor comparison
 * evaluated the way policy actually ships — across a heterogeneous
 * population of simulated devices, not one paper-fidelity phone.
 *
 * Runs a FleetSpec campaign (default 10k devices; trim with
 * `--fleet-devices N` — CI uses 120) comparing paper-DORA against
 * ondemand and the max-frequency governor, and self-checks the fleet
 * engine's contracts:
 *
 *   1. the aggregate report is BYTE-IDENTICAL across the tier matrix
 *      (jobs, workers) in {(1,0), (4,0), (1,2), (1,3)}
 *      (fleetReportText renders every double as a hex float, so any
 *      single-ULP divergence fails);
 *   2. a campaign SIGKILLed once its journal holds a chunk resumes —
 *      journal replay through the same in-order fold — to the same
 *      bytes;
 *   3. cohort device counts conserve the population;
 *   4. the whole bench stays under a peak-RSS ceiling
 *      (`--fleet-rss-ceiling-mb`, default 768): streaming aggregation
 *      is O(shards), so the footprint must not scale with devices.
 *
 * `--fleet-rss-smoke N` instead runs ONE process-tier campaign of N
 * devices and applies only the RSS ceiling — the 10^5-device
 * bounded-memory smoke, kept out of the default self-check matrix
 * because its wall-clock is hours, not minutes.
 *
 * `--fleet-governors a,b,c` substitutes model-free governors so the
 * check runs with no trained bundle (the default DORA arm trains or
 * loads the cached one). Each pass prints a machine-readable FLEET
 * line. Any argument that is neither one of the flags above (nor
 * `--trace DIR` / `--exact-ticks`) nor a flag's value is fatal.
 */

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench_util.hh"
#include "fleet/campaign.hh"
#include "harness/comparison.hh"

using namespace dora;

namespace fs = std::filesystem;

namespace
{

double
wallSeconds(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

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

/** Path of the `<stem>.*.jrn` journal, or empty. */
std::string
findJournal(const std::string &stem)
{
    const fs::path dir = fs::path(stem).parent_path();
    const std::string prefix = fs::path(stem).filename().string();
    if (fs::exists(dir))
        for (const auto &entry : fs::directory_iterator(dir))
            if (entry.path().filename().string().rfind(prefix, 0) == 0 &&
                entry.path().extension() == ".jrn")
                return entry.path().string();
    return "";
}

/** Peak resident set of this process so far, in MB (Linux: KiB). */
double
peakRssMb()
{
    struct rusage ru
    {
    };
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(
        argc, argv, "fleet_rollout",
        {"--fleet-devices", "--fleet-seed", "--fleet-governors",
         "--fleet-max-load", "--fleet-rss-ceiling-mb", "--fleet-rss-smoke",
         "--trace"},
        {"--exact-ticks"});
    ObsGuard obs(argc, argv);

    FleetCampaignConfig base;
    base.spec.devices = 10000;
    base.spec.faultIncidence = 0.05;
    base.governors = {"DORA", "ondemand", "performance"};
    if (const auto v = cliFlagValue(argc, argv, "--fleet-devices"))
        base.spec.devices = static_cast<size_t>(
            cliParseInt(*v, "--fleet-devices", 1, 10000000));
    if (const auto v = cliFlagValue(argc, argv, "--fleet-seed"))
        base.spec.seed = static_cast<uint64_t>(
            cliParseInt(*v, "--fleet-seed", 0, 1000000000));
    if (const auto v = cliFlagValue(argc, argv, "--fleet-governors")) {
        base.governors = splitGovernors(*v);
        if (base.governors.empty())
            fatal("--fleet-governors: empty governor list");
    }
    // A short load wall keeps huge populations affordable (a censored
    // page is still a deterministic measurement); the paper protocol
    // is the 15 s default.
    if (const auto v = cliFlagValue(argc, argv, "--fleet-max-load"))
        base.base.maxLoadSec =
            cliParseDouble(*v, "--fleet-max-load", 0.1, 60.0);

    double rss_ceiling_mb = 768.0;
    if (const auto v =
            cliFlagValue(argc, argv, "--fleet-rss-ceiling-mb"))
        rss_ceiling_mb =
            cliParseDouble(*v, "--fleet-rss-ceiling-mb", 1.0, 65536.0);

    if (std::any_of(base.governors.begin(), base.governors.end(),
                    needsModels))
        base.models = benchBundle();

    // --- Bounded-memory smoke: one process-tier campaign, RSS gate
    // only. Streaming aggregation keeps supervisor memory O(shards),
    // so the ceiling must hold at any device count.
    if (const auto v = cliFlagValue(argc, argv, "--fleet-rss-smoke")) {
        FleetCampaignConfig config = base;
        config.spec.devices = static_cast<size_t>(
            cliParseInt(*v, "--fleet-rss-smoke", 1, 10000000));
        config.jobs = 1;
        config.workers = 2;
        FleetEngine engine(config);
        const auto smoke_t0 = std::chrono::steady_clock::now();
        const FleetReport report = engine.run();
        const double sec = wallSeconds(smoke_t0);
        const double rss = peakRssMb();
        const bool ok =
            rss <= rss_ceiling_mb && report.devices == config.spec.devices;
        std::printf("FLEET_SMOKE devices=%zu wall=%.1f "
                    "devices_per_sec=%.2f peak_rss_mb=%.1f "
                    "rss_ceiling_mb=%.1f ok=%d\n",
                    report.devices, sec,
                    sec > 0.0
                        ? static_cast<double>(report.devices) / sec
                        : 0.0,
                    rss, rss_ceiling_mb, ok ? 1 : 0);
        if (!ok) {
            std::cerr << "FAIL: RSS smoke exceeded the ceiling or "
                         "dropped devices\n";
            return 1;
        }
        return 0;
    }

    const size_t cells =
        base.spec.devices * base.governors.size();
    std::cerr << "[bench] fleet rollout: " << base.spec.devices
              << " devices x " << base.governors.size()
              << " governors = " << cells << " cells\n";

    // --- Reference pass: serial, in-process. ---
    FleetCampaignConfig ref_config = base;
    ref_config.jobs = 1;
    ref_config.workers = 0;
    FleetEngine ref_engine(ref_config);
    auto t0 = std::chrono::steady_clock::now();
    const FleetReport ref = ref_engine.run();
    const double ref_sec = wallSeconds(t0);
    const std::string ref_text = fleetReportText(ref);
    const double devices_per_sec = ref_sec > 0.0
        ? static_cast<double>(base.spec.devices) / ref_sec
        : 0.0;
    std::printf("FLEET jobs=1 workers=0 wall=%.3f "
                "devices_per_sec=%.2f\n",
                ref_sec, devices_per_sec);
    std::cout << ref_text;

    // --- 1. byte-identity across the tier matrix. ---
    bool identical = true;
    struct Combo
    {
        unsigned jobs, workers;
    };
    const Combo combos[] = {{4, 0}, {1, 2}, {1, 3}};
    for (const Combo &c : combos) {
        FleetCampaignConfig config = base;
        config.jobs = c.jobs;
        config.workers = c.workers;
        FleetEngine engine(config);
        t0 = std::chrono::steady_clock::now();
        const FleetReport report = engine.run();
        std::printf("FLEET jobs=%u workers=%u wall=%.3f\n", c.jobs,
                    c.workers, wallSeconds(t0));
        if (fleetReportText(report) != ref_text ||
            report.populationDigest != ref.populationDigest) {
            identical = false;
            std::cerr << "MISMATCH at jobs=" << c.jobs
                      << " workers=" << c.workers << "\n";
        }
    }

    // --- 2. SIGKILL mid-campaign, then journal resume. ---
    const std::string stem =
        (fs::temp_directory_path() / "fleet_rollout_resume").string();
    clearJournals(stem);
    FleetCampaignConfig resume_config = base;
    resume_config.jobs = 1;
    resume_config.workers = 2;
    resume_config.journalStem = stem;

    const pid_t child = ::fork();
    if (child < 0)
        fatal("fleet_rollout: fork failed");
    if (child == 0) {
        FleetEngine engine(resume_config);
        engine.run();
        ::_exit(0);
    }
    // Kill once the journal holds a record (its header is 36 bytes),
    // so the resume replays real progress. A fast campaign may finish
    // before the poll catches it — then the rerun below still
    // validates an idempotent resume.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(30);
    bool child_exited = false;
    int status = 0;
    while (std::chrono::steady_clock::now() < deadline) {
        if (::waitpid(child, &status, WNOHANG) == child) {
            child_exited = true;
            break;
        }
        std::error_code ec;
        const std::string journal = findJournal(stem);
        if (!journal.empty() && fs::file_size(journal, ec) > 36 && !ec)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!child_exited) {
        ::kill(child, SIGKILL);
        ::waitpid(child, &status, 0);
    } else {
        std::cerr << "NOTE: campaign finished before the kill window; "
                     "resume leg degrades to an idempotent rerun\n";
    }
    if (findJournal(stem).empty())
        fatal("fleet_rollout: campaign left no journal");

    FleetEngine resumed_engine(resume_config);
    const FleetReport resumed = resumed_engine.run();
    const bool resume_identical =
        fleetReportText(resumed) == ref_text &&
        resumed.populationDigest == ref.populationDigest;
    if (!resume_identical)
        std::cerr << "MISMATCH after SIGKILL + journal resume\n";
    clearJournals(stem);

    // --- 3. cohort counts conserve the population. ---
    size_t cohort_devices = 0;
    for (const FleetCohortStats &c : ref.cohorts)
        cohort_devices += c.devices;
    const bool cohorts_ok = cohort_devices == ref.devices &&
        ref.cohorts.size() <= fleetCohortCount();
    if (!cohorts_ok)
        std::cerr << "FAIL: cohorts cover " << cohort_devices
                  << " devices, population is " << ref.devices << "\n";

    // --- 4. fixed-memory aggregation: the whole matrix (4 campaigns
    // + resume) must fit under the ceiling regardless of device count.
    const double rss_mb = peakRssMb();
    const bool rss_ok = rss_mb <= rss_ceiling_mb;
    if (!rss_ok)
        std::cerr << "FAIL: peak RSS " << rss_mb << " MB exceeds the "
                  << rss_ceiling_mb << " MB ceiling\n";

    std::printf("FLEET identical=%d resume_identical=%d cohorts_ok=%d "
                "peak_rss_mb=%.1f rss_ok=%d\n",
                identical ? 1 : 0, resume_identical ? 1 : 0,
                cohorts_ok ? 1 : 0, rss_mb, rss_ok ? 1 : 0);

    if (!identical || !resume_identical || !cohorts_ok || !rss_ok) {
        std::cerr << "FAIL: fleet campaign violated the "
                     "identity/memory contract\n";
        return 1;
    }
    std::cout << "fleet rollout bit-identical across " << cells
              << " cells x 4 tier combinations + journal resume, "
              << "peak RSS " << static_cast<int>(rss_mb) << " MB\n";
    return 0;
}
