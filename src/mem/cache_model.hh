/**
 * @file
 * Set-associative cache model with LRU replacement and per-requestor
 * statistics.
 *
 * Used for the private 16 KB L1 data caches and the 2 MB shared L2 of
 * the modeled MSM8974 (Table II of the paper). The shared L2 instance is
 * accessed by all cores; the per-requestor statistics expose both each
 * core's miss counts and how many of its resident lines were evicted by
 * *other* requestors — the direct mechanism behind the paper's memory
 * interference observations.
 *
 * Storage is structure-of-arrays: the probe loop walks a contiguous
 * run of tags (one or two cache lines for an 8-way set) and only
 * touches recency/owner metadata on the way that hits or fills. An
 * invalid way is marked twice. Its tag is kInvalidTag, which no line
 * address may equal, so a tag match alone is a hit and the probe never
 * reads the recency array. Its last-use stamp is 0 (live ways always
 * carry a stamp >= 1), which makes the LRU victim scan a single
 * branch-free min-reduction: invalid ways rank below every live way
 * and ties break to the lowest index, exactly reproducing the classic
 * invalid-first-then-LRU policy.
 */

#ifndef DORA_MEM_CACHE_MODEL_HH
#define DORA_MEM_CACHE_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace dora
{

class SnapshotReader;
class SnapshotWriter;

/** Replacement policy of a cache instance. */
enum class ReplacementPolicy
{
    Lru,       //!< true LRU (default; what the MSM8974 L2 approximates)
    TreePlru,  //!< tree pseudo-LRU (cheaper hardware approximation)
    Random     //!< random victim (deterministic xorshift sequence)
};

/** Human-readable policy name. */
const char *replacementPolicyName(ReplacementPolicy policy);

/** Geometry and identification of a cache instance. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t sizeBytes = 16 * 1024;
    uint32_t associativity = 4;
    uint32_t lineBytes = 64;
    uint32_t numRequestors = 1;
    ReplacementPolicy policy = ReplacementPolicy::Lru;

    bool operator==(const CacheConfig &) const = default;
};

/** Per-requestor cache statistics. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t misses = 0;
    /** Evictions of this requestor's lines caused by other requestors. */
    uint64_t interferenceEvictions = 0;
    /** Evictions of this requestor's lines caused by itself. */
    uint64_t selfEvictions = 0;

    double missRate() const
    {
        return accesses ? static_cast<double>(misses) /
            static_cast<double>(accesses) : 0.0;
    }
};

/**
 * A classic set-associative cache with true-LRU replacement.
 *
 * Addresses are line-granular (see AddressStream). The model tracks tag
 * contents only (no data), which is all the timing and interference
 * machinery needs.
 */
class CacheModel
{
  public:
    /**
     * Tag of every invalid way. Address streams keep their lines below
     * it (AddressStream panics otherwise) and access() refuses it.
     */
    static constexpr uint64_t kInvalidTag = ~uint64_t{0};

    explicit CacheModel(const CacheConfig &config);

    /**
     * Look up @p line_addr on behalf of @p requestor, allocating on miss.
     * @return true on hit.
     */
    bool access(uint64_t line_addr, uint32_t requestor);

    /** Invalidate all lines and keep statistics. */
    void flush();

    /** Reset statistics for all requestors. */
    void resetStats();

    /** Statistics for @p requestor. */
    const CacheStats &stats(uint32_t requestor) const;

    /** Aggregate statistics over all requestors. */
    CacheStats totalStats() const;

    /** Geometry this cache was built with. */
    const CacheConfig &config() const { return config_; }

    /** Number of sets. */
    uint32_t numSets() const { return numSets_; }

    /** Valid lines currently owned by @p requestor (O(1) counter). */
    uint64_t ownedLines(uint32_t requestor) const;

    /** Fraction of valid lines currently owned by @p requestor. */
    double occupancyFraction(uint32_t requestor) const;

    /**
     * Reference implementation of occupancyFraction() as a full
     * O(sets x assoc) scan of the arrays. Exists so tests can verify
     * the incremental owned-line counters against first principles;
     * never call it on a hot path.
     */
    double occupancyFractionScan(uint32_t requestor) const;

    /** Serialize tags, recency, ownership, and statistics. */
    void snapshot(SnapshotWriter &w) const;

    /**
     * Restore a snapshot taken from a cache with identical geometry.
     * Every way whose stamp is 0 gets kInvalidTag, whatever stale tag
     * the snapshot holds there. False (state untouched on the failing
     * field) on section, version, or geometry mismatch, or on a valid
     * way tagged kInvalidTag.
     */
    [[nodiscard]] bool tryRestore(SnapshotReader &r);

  private:
    /**
     * The batched walk kernel (MemSystem::walkBatched, DESIGN.md §5g)
     * replays access() semantics over the raw arrays with hoisted
     * pointers; it is the one sanctioned bypass of the public API and
     * its bit-identity to access() is enforced by tests/mem.
     */
    friend class MemSystem;

    /** Pick the victim way index within @p set per the policy. */
    uint32_t chooseVictim(uint32_t set);

    /** Update replacement state for a touch of (set, way). */
    void touch(uint32_t set, uint32_t way);

    CacheConfig config_;
    uint32_t numSets_;  // dora:snapshot-exclude(derived from config)
    /**
     * Way state, split by access pattern (all numSets_*associativity,
     * row-major by set): the probe loop reads tags_ only (kInvalidTag =
     * invalid); lastUse_ is the LRU stamp (0 = invalid); owners_ is
     * touched on ownership changes and eviction accounting.
     */
    std::vector<uint64_t> tags_;
    std::vector<uint64_t> lastUse_;
    std::vector<uint32_t> owners_;
    /** Per-requestor count of currently valid owned lines. */
    std::vector<uint64_t> owned_;
    std::vector<CacheStats> stats_;
    std::vector<uint32_t> plruBits_;  //!< per-set PLRU tree state
    uint64_t accessClock_ = 0;
    uint64_t randState_ = 0x2545F4914F6CDD1Dull;
};

} // namespace dora

#endif // DORA_MEM_CACHE_MODEL_HH
