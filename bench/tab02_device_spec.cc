/**
 * @file
 * Table II: specification of the simulated device — printed from the
 * live configuration objects so the table cannot drift from the code.
 */

#include <iostream>

#include "bench_util.hh"
#include "soc/soc.hh"

using namespace dora;

int
main(int argc, char **argv)
{
    cliRejectUnknownArgs(argc, argv, "tab02_device_spec", {"--trace"},
                         {"--exact-ticks"});
    ObsGuard obs(argc, argv);
    const Soc soc = Soc::nexus5();
    const SocConfig &config = soc.config();
    const MemSystemConfig &mem = soc.mem().config();
    const FreqTable &table = soc.freqTable();

    TextTable t({"component", "value"});
    auto row = [&t](const std::string &k, const std::string &v) {
        t.beginRow();
        t.add(k);
        t.add(v);
    };
    row("modeled device", "Google Nexus 5 (simulated)");
    row("chipset", "MSM8974 Snapdragon 800 (simulated)");
    row("application processor",
        std::to_string(config.numCores) + "x Krait-class cores");
    row("L1 D-cache (per core)",
        std::to_string(mem.l1.sizeBytes / 1024) + " KB, " +
            std::to_string(mem.l1.associativity) + "-way");
    row("L2 unified cache (shared)",
        std::to_string(mem.l2.sizeBytes / 1024 / 1024) + " MB, " +
            std::to_string(mem.l2.associativity) + "-way");
    row("cache line", std::to_string(mem.l2.lineBytes) + " B");
    row("memory", "LPDDR3 model, " +
            formatFixed(mem.dram.baseLatencyNs, 0) + " ns unloaded, " +
            formatFixed(mem.dram.bytesPerBusCycle, 0) +
            " B/bus-cycle");
    row("frequency settings",
        std::to_string(table.size()) + " OPPs, " +
            formatFixed(table.opp(0).coreMhz, 1) + " - " +
            formatFixed(table.opp(table.maxIndex()).coreMhz, 1) +
            " MHz");
    row("memory bus groups",
        std::to_string(table.busFrequencies().size()) +
            " bus frequencies (piece-wise model groups)");
    emitTable("tab02", "Table II — device specification", t);

    TextTable opps({"idx", "core MHz", "voltage V", "bus MHz"});
    for (size_t i = 0; i < table.size(); ++i) {
        opps.beginRow();
        opps.add(static_cast<int64_t>(i));
        opps.add(table.opp(i).coreMhz, 1);
        opps.add(table.opp(i).voltage, 3);
        opps.add(table.opp(i).busMhz, 0);
    }
    emitTable("tab02_opps", "DVFS operating points", opps);
    return 0;
}
