#include "harness/bundle_cache.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/cli.hh"
#include "common/logging.hh"
#include "dora/trainer.hh"

namespace dora
{

namespace
{

/** True when @p fd still refers to the inode at @p path. */
bool
inodeCurrent(int fd, const std::string &path)
{
    struct stat by_fd, by_path;
    if (::fstat(fd, &by_fd) != 0 || ::stat(path.c_str(), &by_path) != 0)
        return false;
    return by_fd.st_dev == by_path.st_dev &&
        by_fd.st_ino == by_path.st_ino;
}

/** Record the calling process as the holder of the lock at @p fd. */
void
writeHolderPid(int fd)
{
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%ld\n",
                                static_cast<long>(::getpid()));
    if (::ftruncate(fd, 0) != 0 ||
        ::pwrite(fd, buf, static_cast<size_t>(n), 0) != n)
        debugLog("bundle cache: cannot record holder pid (lock still "
                 "held)");
}

/** True when @p pid is (or may be) a live process. */
bool
pidAlive(long pid)
{
    if (pid <= 0)
        return false;
    if (::kill(static_cast<pid_t>(pid), 0) == 0)
        return true;
    // EPERM means the process exists but belongs to someone else.
    return errno == EPERM;
}

} // namespace

int
BundleCacheLock::readHolderPid(const std::string &lock_path)
{
    const int fd = ::open(lock_path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return -1;
    char buf[32] = {};
    const ssize_t n = ::pread(fd, buf, sizeof(buf) - 1, 0);
    ::close(fd);
    if (n <= 0)
        return -1;
    char *end = nullptr;
    const long pid = std::strtol(buf, &end, 10);
    if (end == buf || pid <= 0)
        return -1;
    return static_cast<int>(pid);
}

BundleCacheLock::BundleCacheLock(const std::string &cache_path)
{
    const std::string lock_path = cache_path + ".lock";

    // Bounded recovery attempts: each stale detection unlinks the lock
    // file and retries on a fresh inode. A pathological filesystem
    // (every attempt failing differently) degrades to unlocked rather
    // than spinning.
    for (int attempt = 0; attempt < 5; ++attempt) {
        fd_ = ::open(lock_path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC,
                     0644);
        if (fd_ < 0) {
            debugLog("bundle cache: cannot open %s; proceeding unlocked",
                     lock_path.c_str());
            return;
        }

        if (::flock(fd_, LOCK_EX | LOCK_NB) == 0) {
            if (!inodeCurrent(fd_, lock_path)) {
                // We locked an inode that was unlinked under us by a
                // concurrent stale recovery; take the current one.
                ::close(fd_);
                fd_ = -1;
                continue;
            }
            writeHolderPid(fd_);
            held_ = true;
            return;
        }

        // Contended. A live recorded holder gets the legacy blocking
        // wait; a dead one means the lock is stale — typically an fd
        // inherited across fork() by a worker that outlived (or was
        // orphaned by) the real holder — and is safe to break.
        const int holder = readHolderPid(lock_path);
        if (holder < 0 || pidAlive(holder)) {
            if (::flock(fd_, LOCK_EX) == 0) {
                if (!inodeCurrent(fd_, lock_path)) {
                    ::close(fd_);
                    fd_ = -1;
                    continue;  // lock file was replaced while we slept
                }
                writeHolderPid(fd_);
                held_ = true;
                return;
            }
            debugLog("bundle cache: flock on %s failed; proceeding "
                     "unlocked", lock_path.c_str());
            ::close(fd_);
            fd_ = -1;
            return;
        }

        warn("bundle cache: lock %s is held on behalf of dead pid %d "
             "(stale — an inherited fd outlived its holder); breaking "
             "the lock",
             lock_path.c_str(), holder);
        // Unlink only while the path still names the inode we opened,
        // so a fresh lock created by a concurrent recovery survives.
        if (inodeCurrent(fd_, lock_path))
            ::unlink(lock_path.c_str());
        ::close(fd_);
        fd_ = -1;
    }
    debugLog("bundle cache: giving up on %s after repeated stale-lock "
             "recoveries; proceeding unlocked", lock_path.c_str());
}

BundleCacheLock::~BundleCacheLock()
{
    if (fd_ >= 0) {
        ::flock(fd_, LOCK_UN);
        ::close(fd_);
    }
}

std::string
defaultBundleCachePath()
{
    if (const char *env = envNonEmpty("DORA_MODEL_CACHE"))
        return env;
    return "dora_models.cache";
}

std::shared_ptr<const ModelBundle>
loadOrTrainBundle()
{
    const std::string path = defaultBundleCachePath();
    // Hold the advisory lock across the whole check-train-save window:
    // a second process blocks here until the first has cached its
    // bundle, then loads that bundle instead of retraining.
    BundleCacheLock lock(path);
    Trainer trainer;
    return std::make_shared<const ModelBundle>(trainer.trainCached(path));
}

} // namespace dora
