/**
 * @file
 * Shared access to the trained model bundle for benches and examples.
 *
 * Training takes a few minutes of simulation, so the first binary that
 * needs the models trains and caches them; later binaries reuse the
 * cache. Set DORA_MODEL_CACHE to relocate the cache file, or delete it
 * to force retraining.
 *
 * The cache is keyed by format version AND a hash of the training
 * configuration (trainingConfigHash): a file trained under different
 * ridge strengths, frequency sets, or measurement protocol is rejected
 * and retrained. A corrupt, truncated, or non-finite cache file is
 * likewise rejected with a warning — never a process abort.
 */

#ifndef DORA_HARNESS_BUNDLE_CACHE_HH
#define DORA_HARNESS_BUNDLE_CACHE_HH

#include <memory>
#include <string>

#include "common/thread_annotations.hh"
#include "dora/model_bundle.hh"

namespace dora
{

/**
 * Cache path: $DORA_MODEL_CACHE, or "dora_models.cache" in the cwd
 * when it is unset or empty (an empty value warns).
 */
std::string defaultBundleCachePath();

/**
 * Advisory inter-process lock on the cache file, held across the
 * load-check / train / save sequence so parallel bench invocations
 * don't train concurrently and interleave writes.
 *
 * flock(2) locks the open file *description*, which forked children
 * inherit — so a lock holder that forks workers (the exec/proc tier
 * does exactly that) and then dies can leave the lock held forever by
 * a child that never exits. The lock file therefore records the
 * holder's pid: an acquirer that finds the lock contended checks the
 * recorded holder's liveness, and when the holder is dead it unlinks
 * the stale lock file and retakes a fresh inode instead of blocking
 * forever (stale holders keep their orphaned inode locked, which no
 * longer matters). A live holder blocks the acquirer as before, and
 * any filesystem-level failure degrades to the old unlocked behaviour.
 */
class SCOPED_CAPABILITY BundleCacheLock
{
  public:
    explicit BundleCacheLock(const std::string &cache_path) ACQUIRE();
    ~BundleCacheLock() RELEASE();

    BundleCacheLock(const BundleCacheLock &) = delete;
    BundleCacheLock &operator=(const BundleCacheLock &) = delete;

    /** True when the advisory lock was actually acquired. */
    bool held() const { return held_; }

    /**
     * Pid recorded in @p lock_path by the current holder, or -1 when
     * the file is missing/empty/unparsable. Exposed for tests.
     */
    static int readHolderPid(const std::string &lock_path);

  private:
    int fd_ = -1;
    bool held_ = false;
};

/** Load the cached bundle or train one (and cache it). */
std::shared_ptr<const ModelBundle> loadOrTrainBundle();

} // namespace dora

#endif // DORA_HARNESS_BUNDLE_CACHE_HH
