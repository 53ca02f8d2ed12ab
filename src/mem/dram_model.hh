/**
 * @file
 * LPDDR3 memory-controller model: bandwidth capacity set by the memory
 * bus frequency, and an effective access latency that inflates with bus
 * utilization (queueing).
 *
 * This is the second interference mechanism of the paper (after shared-L2
 * eviction): a memory-intensive co-runner raises bus utilization, which
 * lengthens every L2 miss the browser takes. Because the bus frequency
 * is slaved to the core-frequency group (see FreqTable), DVFS moves both
 * compute speed *and* memory bandwidth — which is why the paper builds
 * piece-wise models per bus frequency (Section III-A).
 */

#ifndef DORA_MEM_DRAM_MODEL_HH
#define DORA_MEM_DRAM_MODEL_HH

#include <cstdint>

namespace dora
{

class SnapshotReader;
class SnapshotWriter;

/** Configuration of the DRAM/bus model. */
struct DramConfig
{
    /** Unloaded access latency in nanoseconds (row activate + CAS). */
    double baseLatencyNs = 80.0;

    /** Bytes transferred per bus clock (LPDDR3 32-bit DDR channel). */
    double bytesPerBusCycle = 8.0;

    /** Achievable fraction of peak bandwidth (scheduling efficiency). */
    double efficiency = 0.62;

    /** Utilization cap used by the queueing model to stay finite. */
    double maxUtilization = 0.95;

    /** Energy cost per byte moved to/from DRAM (nanojoules). */
    double energyPerByteNj = 0.35;

    /** Background (always-on) DRAM power in watts. */
    double backgroundPowerW = 0.045;

    bool operator==(const DramConfig &) const = default;
};

/**
 * Tick-granular DRAM model.
 *
 * Per tick, components add the bytes they demanded; endTick() converts
 * demand into a utilization and an effective latency that the *next*
 * tick's core timing uses (one-tick feedback keeps the fixed point
 * trivially stable at 1 ms granularity).
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &config);

    /** Record @p bytes of demand during the current tick. */
    void addDemand(double bytes);

    /**
     * Close the current tick.
     * @param dt_sec   tick duration in seconds
     * @param bus_mhz  memory bus frequency during the tick
     */
    void endTick(double dt_sec, double bus_mhz);

    /** Effective access latency (ns) as of the last endTick(). */
    double effectiveLatencyNs() const { return effectiveLatencyNs_; }

    /** Bus utilization in [0, maxUtilization] from the last tick. */
    double utilization() const { return utilization_; }

    /** Peak deliverable bandwidth at @p bus_mhz in bytes/second. */
    double capacityBytesPerSec(double bus_mhz) const;

    /** Energy (joules) consumed by traffic during the last tick. */
    double lastTickEnergyJ() const { return lastTickEnergyJ_; }

    /** Total bytes transferred since construction/reset. */
    double totalBytes() const { return totalBytes_; }

    /** Reset counters and latency state. */
    void reset();

    /** Serialize utilization/latency/energy state. */
    void snapshot(SnapshotWriter &w) const;

    /** Restore a snapshot; false on section/version mismatch. */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

    const DramConfig &config() const { return config_; }

  private:
    DramConfig config_;  // dora:snapshot-exclude(construction config)
    double pendingBytes_ = 0.0;
    double utilization_ = 0.0;
    double effectiveLatencyNs_;
    double lastTickEnergyJ_ = 0.0;
    double totalBytes_ = 0.0;
};

} // namespace dora

#endif // DORA_MEM_DRAM_MODEL_HH
