/**
 * @file
 * Versioned binary snapshot/restore for simulator state.
 *
 * A snapshot is a flat byte buffer: a sequence of tagged, versioned
 * sections, each written by one component (`Soc`, `MemSystem`,
 * `CacheModel`, a governor, ...), terminated by an FNV-1a checksum
 * over everything before it. Doubles are stored as raw IEEE-754 bit
 * patterns, so a snapshot -> restore -> snapshot round trip is
 * byte-identical and a restored simulation continues bit-for-bit
 * where the original left off (the contract tests/sim/snapshot_test.cc
 * enforces).
 *
 * Versioning policy (DESIGN.md §5f): every section carries its own
 * tag + version. A reader rejects unknown tags and versions instead of
 * guessing — restore is `tryRestore()` returning false, never a
 * partial state. Snapshots are same-process/same-build artifacts for
 * replay and checkpointing; they are NOT a portable interchange
 * format (byte order and type widths follow the host).
 *
 * Restore-fallibility is machine-enforced: the dora-rob-unchecked-try
 * lint rule flags any `tryRestore`/`tryDeserialize` call whose result
 * is discarded.
 */

#ifndef DORA_COMMON_SNAPSHOT_HH
#define DORA_COMMON_SNAPSHOT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dora
{

/** Appends typed fields to a growing snapshot buffer. */
class SnapshotWriter
{
  public:
    /** Open a tagged, versioned section (4-char tag, e.g. "soc "). */
    void beginSection(std::string_view tag, uint32_t version);

    void putU8(uint8_t v);
    void putU32(uint32_t v);
    void putU64(uint64_t v);
    /** Raw IEEE-754 bit pattern: lossless, bit-exact. */
    void putDouble(double v);
    void putBool(bool v) { putU8(v ? 1 : 0); }
    void putSize(size_t v) { putU64(static_cast<uint64_t>(v)); }
    void putString(std::string_view s);
    void putDoubles(const std::vector<double> &v);
    void putU64s(const std::vector<uint64_t> &v);
    void putU32s(const std::vector<uint32_t> &v);

    /** Seal the buffer: append the checksum and return the bytes. */
    std::string finish() const;

    /** Bytes written so far (excluding the trailing checksum). */
    size_t size() const { return bytes_.size(); }

  private:
    std::string bytes_;
};

/**
 * Sequential reader over a sealed snapshot buffer. Every accessor
 * returns false on exhaustion or type/tag mismatch and leaves @p out
 * untouched; callers must check (the lint rule enforces it for the
 * tryRestore entry points).
 *
 * The reader is a view: the buffer must outlive it. Binding it to a
 * temporary string would dangle, so that constructor is deleted.
 */
class SnapshotReader
{
  public:
    explicit SnapshotReader(std::string_view bytes) : bytes_(bytes) {}
    explicit SnapshotReader(std::string &&bytes) = delete;

    /**
     * Validate the trailing checksum. Call once before restoring;
     * false means the buffer is truncated or corrupt.
     */
    bool checksumOk() const;

    /** Enter a section; false on tag or version mismatch. */
    bool beginSection(std::string_view tag, uint32_t version);

    bool getU8(uint8_t *out);
    bool getU32(uint32_t *out);
    bool getU64(uint64_t *out);
    bool getDouble(double *out);
    bool getBool(bool *out);
    bool getSize(size_t *out);
    bool getString(std::string *out);
    bool getDoubles(std::vector<double> *out);
    bool getU64s(std::vector<uint64_t> *out);
    bool getU32s(std::vector<uint32_t> *out);

    /** True when every payload byte has been consumed. */
    bool atEnd() const;

  private:
    bool take(void *out, size_t n);

    std::string_view bytes_;
    size_t pos_ = 0;
};

} // namespace dora

#endif // DORA_COMMON_SNAPSHOT_HH
