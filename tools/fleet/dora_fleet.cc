/**
 * @file
 * dora-fleet command-line driver: run a fleet campaign from a shell.
 *
 *   dora-fleet [--fleet-devices N] [--fleet-seed N]
 *              [--fleet-governors a,b,c] [--fleet-fault-incidence X]
 *              [--fleet-max-load S] [--fleet-journal STEM]
 *              [--fleet-checkpoint-interval N]
 *              [--fleet-report-quantiles q1,q2,...]
 *              [--fleet-replay DEV [--fleet-replay-governor NAME]]
 *              [--jobs N] [--workers N] [--trace DIR] [--exact-ticks]
 *
 * Prints the canonical fleetReportText() (hex-float, byte-comparable
 * across tier settings and resumes) followed by a human-readable
 * summary. --fleet-checkpoint-interval sets how many completed chunks
 * the supervisor absorbs between aggregate checkpoints (journaled
 * campaigns only); --fleet-report-quantiles appends one QUANTILES
 * line per governor with the requested PPW and load-time quantiles
 * straight from the campaign sketches. With --fleet-replay it instead
 * re-runs one device of the campaign alone and prints the cell's
 * measurement — bit-identical to what the full campaign produced for
 * that device.
 *
 * Every flag is routed through common/cli.hh, so a trailing flag with
 * a missing value is a fatal diagnostic, never silently ignored. So is
 * any argument that is neither one of the flags above nor its value.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "fleet/campaign.hh"

using namespace dora;

namespace
{

bool
needsModels(const std::string &name)
{
    return name == "DORA" || name == "DORA_no_lkg" || name == "EE" ||
        name == "DL";
}

std::vector<std::string>
splitGovernors(const std::string &text)
{
    std::vector<std::string> names;
    std::string current;
    for (char c : text) {
        if (c == ',') {
            if (!current.empty())
                names.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    if (!current.empty())
        names.push_back(current);
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(
        argc, argv, "dora-fleet",
        {"--fleet-devices", "--fleet-seed", "--fleet-governors",
         "--fleet-fault-incidence", "--fleet-max-load", "--fleet-journal",
         "--fleet-checkpoint-interval", "--fleet-report-quantiles",
         "--fleet-replay", "--fleet-replay-governor", "--jobs",
         "--workers", "--trace"},
        {"--exact-ticks"});
    ObsGuard obs(argc, argv);

    FleetCampaignConfig config;
    config.spec.devices = 1000;
    config.governors = {"ondemand", "performance"};
    config.jobs = benchJobs(argc, argv);
    config.workers = benchWorkers(argc, argv);

    if (const auto v = cliFlagValue(argc, argv, "--fleet-devices"))
        config.spec.devices = static_cast<size_t>(
            cliParseInt(*v, "--fleet-devices", 1, 10000000));
    if (const auto v = cliFlagValue(argc, argv, "--fleet-seed"))
        config.spec.seed = static_cast<uint64_t>(
            cliParseInt(*v, "--fleet-seed", 0, 1000000000));
    if (const auto v = cliFlagValue(argc, argv, "--fleet-governors")) {
        config.governors = splitGovernors(*v);
        if (config.governors.empty())
            fatal("--fleet-governors: empty governor list");
    }
    if (const auto v =
            cliFlagValue(argc, argv, "--fleet-fault-incidence"))
        config.spec.faultIncidence =
            cliParseDouble(*v, "--fleet-fault-incidence", 0.0, 1.0);
    if (const auto v = cliFlagValue(argc, argv, "--fleet-max-load"))
        config.base.maxLoadSec =
            cliParseDouble(*v, "--fleet-max-load", 0.1, 60.0);
    if (const auto v = cliFlagValue(argc, argv, "--fleet-journal"))
        config.journalStem = *v;
    if (const auto v =
            cliFlagValue(argc, argv, "--fleet-checkpoint-interval"))
        config.checkpointIntervalChunks = static_cast<unsigned>(
            cliParseInt(*v, "--fleet-checkpoint-interval", 1, 1000000));
    std::vector<double> report_quantiles;
    if (const auto v =
            cliFlagValue(argc, argv, "--fleet-report-quantiles")) {
        for (const std::string &piece : splitGovernors(*v))
            report_quantiles.push_back(cliParseDouble(
                piece, "--fleet-report-quantiles", 0.0, 1.0));
        if (report_quantiles.empty())
            fatal("--fleet-report-quantiles: empty quantile list");
    }

    if (std::any_of(config.governors.begin(), config.governors.end(),
                    needsModels))
        config.models = benchBundle();

    FleetEngine engine(config);

    if (const auto v = cliFlagValue(argc, argv, "--fleet-replay")) {
        const size_t device = static_cast<size_t>(cliParseInt(
            *v, "--fleet-replay", 0,
            static_cast<long>(config.spec.devices) - 1));
        std::string governor = config.governors.front();
        if (const auto g =
                cliFlagValue(argc, argv, "--fleet-replay-governor"))
            governor = *g;
        const DeviceSpec spec = sampleDevice(config.spec, device);
        std::printf("REPLAY device=%zu governor=%s label=%s "
                    "cohort=[%s]\n",
                    device, governor.c_str(),
                    spec.label(config.spec.seed).c_str(),
                    spec.cohort().c_str());
        const RunMeasurement m = engine.replayDevice(device, governor);
        std::fputs(runMeasurementText(m).c_str(), stdout);
        std::fputs("\n", stdout);
        return 0;
    }

    std::fprintf(stderr,
                 "[dora-fleet] campaign 0x%016llx: %zu devices x %zu "
                 "governors\n",
                 static_cast<unsigned long long>(
                     fleetCampaignHash(config)),
                 config.spec.devices, config.governors.size());

    const FleetReport report = engine.run();
    std::fputs(fleetReportText(report).c_str(), stdout);

    for (const FleetGovernorStats &g : report.byGovernor)
        std::printf("# %-12s meet-rate %5.1f%%  mean PPW %.4g  "
                    "p95 load %.3fs  censored %zu/%zu\n",
                    g.governor.c_str(), 100.0 * g.meetRate, g.meanPpw,
                    g.p95LoadSec, g.censored, g.devices);
    for (const FleetGovernorStats &g : report.byGovernor) {
        if (report_quantiles.empty())
            break;
        std::printf("QUANTILES governor=%s", g.governor.c_str());
        for (double q : report_quantiles)
            std::printf(" ppw_q%g=%.6g load_q%g=%.6g", q,
                        g.ppw.quantile(q), q, g.loadTime.quantile(q));
        std::printf("\n");
    }
    return 0;
}
