/**
 * @file
 * Append-only, fsync'd, checksummed results journal for campaign
 * sweeps (DESIGN.md §5f).
 *
 * Layout:
 *
 *   header   magic u64 'DORAJRN1' | version u32 | campaignHash u64 |
 *            unitCount u64 | fnv u64 (over the preceding fields)
 *   records  magic u32 'JREC' | unit u64 | len u32 | payload |
 *            fnv u64 (over unit..payload), repeated
 *
 * Every append() is written with a single write() and fsync'd before
 * returning, so a SIGKILL at any instant leaves at most one partial
 * record at the tail. open() on an existing file verifies the header
 * (campaign hash + unit count — resuming a journal from a *different*
 * sweep is refused, not guessed at), loads every intact record, and
 * truncates a torn/corrupt tail so appends continue from the last
 * durable record.
 */

#ifndef DORA_EXEC_PROC_JOURNAL_HH
#define DORA_EXEC_PROC_JOURNAL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dora
{

/**
 * One journal file, opened for resume + append. Not thread-safe; the
 * supervisor is the single writer.
 */
class ResultsJournal
{
  public:
    ResultsJournal() = default;
    ~ResultsJournal();

    ResultsJournal(const ResultsJournal &) = delete;
    ResultsJournal &operator=(const ResultsJournal &) = delete;

    /**
     * Open @p path, creating it with a fresh header when absent or
     * empty. An existing journal is validated and its intact records
     * loaded (see loaded()); a corrupt or partial tail is truncated.
     *
     * @return false when the file cannot be used at all: I/O error,
     *         unrecognizable header, version mismatch, or a campaign
     *         hash / unit count that does not match @p campaign_hash /
     *         @p unit_count (resuming across different sweeps). The
     *         reason is in error().
     */
    [[nodiscard]] bool open(const std::string &path,
                            uint64_t campaign_hash, uint64_t unit_count);

    /** Records recovered by open(), in journal order. */
    const std::vector<std::pair<uint64_t, std::string>> &loaded() const
    {
        return loaded_;
    }

    /** True when open() had to truncate a torn/corrupt tail. */
    bool truncatedTail() const { return truncatedTail_; }

    /**
     * Durably append one completed unit: single write + fsync.
     * @return false on I/O failure (reason in error()).
     */
    [[nodiscard]] bool append(uint64_t unit, std::string_view payload);

    /** Human-readable reason of the last failure. */
    const std::string &error() const { return error_; }

    /** True between a successful open() and close(). */
    bool isOpen() const { return fd_ >= 0; }

    /** Flush and close the file (also runs at destruction). */
    void close();

  private:
    int fd_ = -1;
    std::string error_;
    std::vector<std::pair<uint64_t, std::string>> loaded_;
    bool truncatedTail_ = false;
};

} // namespace dora

#endif // DORA_EXEC_PROC_JOURNAL_HH
