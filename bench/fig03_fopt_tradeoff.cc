/**
 * @file
 * Figure 3: the optimal operating mode. For ESPN (a heavy page) the
 * deadline-meeting frequency fD lies *above* the PPW-optimal fE, so
 * fopt = fD; for MSN (a light page) fD is low and fopt = fE. Running
 * flat out instead of at fopt wastes double-digit percent PPW (paper:
 * 17% for ESPN, 28% for MSN).
 */

#include <iostream>

#include "bench_util.hh"
#include "browser/page_corpus.hh"
#include "runner/experiment.hh"

using namespace dora;

namespace
{

void
sweepPage(ExperimentRunner &runner, const char *name, MemIntensity cls)
{
    const FreqTable &table = runner.freqTable();
    const WorkloadSpec w =
        WorkloadSets::combo(PageCorpus::byName(name), cls);
    const double deadline = runner.config().deadlineSec;

    struct Row
    {
        size_t idx;
        RunMeasurement m;
    };
    std::vector<Row> rows;
    for (size_t f : table.paperSweepIndices())
        rows.push_back({f, runner.runAtFrequency(w, f)});

    size_t fe = rows.front().idx;
    double best_ppw = 0.0;
    size_t fd = table.maxIndex();
    bool fd_found = false;
    for (const auto &row : rows) {
        if (row.m.ppw > best_ppw) {
            best_ppw = row.m.ppw;
            fe = row.idx;
        }
        if (!fd_found && row.m.meetsDeadline) {
            fd = row.idx;
            fd_found = true;
        }
    }
    const size_t fopt = fd_found ? std::max(fd, fe) : table.maxIndex();

    TextTable t({"core GHz", "load time s", "PPW 1/J", "meets 3s",
                 "marker"});
    double fopt_ppw = 0.0, max_ppw = 0.0;
    for (const auto &row : rows) {
        t.beginRow();
        t.add(table.opp(row.idx).coreMhz / 1000.0, 2);
        t.add(row.m.loadTimeSec, 3);
        t.add(row.m.ppw, 4);
        t.add(std::string(row.m.meetsDeadline ? "yes" : "no"));
        std::string marker;
        if (row.idx == fe)
            marker += "fE ";
        if (fd_found && row.idx == fd)
            marker += "fD ";
        if (row.idx == fopt)
            marker += "<- fopt";
        t.add(marker);
        if (row.idx == fopt)
            fopt_ppw = row.m.ppw;
        if (row.idx == table.maxIndex())
            max_ppw = row.m.ppw;
    }
    emitTable(std::string("fig03_") + name,
              std::string("Fig. 3 — ") + name + " + " +
                  memIntensityName(cls) + " co-runner (deadline " +
                  formatFixed(deadline, 0) + " s)",
              t);
    if (max_ppw > 0.0)
        std::cout << "Running flat out instead of fopt costs "
                  << formatFixed(100.0 * (fopt_ppw - max_ppw) / fopt_ppw,
                                 1)
                  << "% PPW; regime: "
                  << (fd_found && fd > fe ? "fD > fE (fopt = fD)"
                                          : "fD <= fE (fopt = fE)")
                  << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "fig03_fopt_tradeoff", {"--trace"},
                         {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    ExperimentRunner runner;
    sweepPage(runner, "espn", MemIntensity::Medium);
    sweepPage(runner, "msn", MemIntensity::Medium);
    std::cout << "\nExpected shape: ESPN needs a high fD (fopt = fD); "
                 "MSN's fopt = fE sits at a mid frequency; both lose "
                 "double-digit PPW at max frequency.\n";
    return 0;
}
