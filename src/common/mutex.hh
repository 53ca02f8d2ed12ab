/**
 * @file
 * Annotated mutual-exclusion primitives for clang thread-safety
 * analysis (common/thread_annotations.hh).
 *
 * libstdc++'s std::mutex and std::lock_guard carry no capability
 * attributes, so `-Wthread-safety` cannot follow them. dora::Mutex
 * wraps std::mutex in a CAPABILITY class and dora::MutexLock is the
 * SCOPED_CAPABILITY guard; fields declared GUARDED_BY(someMutex_) are
 * then provably accessed only under the lock — a violation is a
 * compile error under -DDORA_THREAD_SAFETY=ON (clang). These
 * primitives sit on cold control paths only (first-error records,
 * registry insertions, log-sink serialization); hot paths stay on
 * relaxed atomics.
 */

#ifndef DORA_COMMON_MUTEX_HH
#define DORA_COMMON_MUTEX_HH

#include <mutex>

#include "common/thread_annotations.hh"

namespace dora
{

/** An annotated std::mutex: the unit of GUARDED_BY declarations. */
class CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() ACQUIRE() { m_.lock(); }

    void unlock() RELEASE() { m_.unlock(); }

    bool try_lock() TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    std::mutex m_; // NOLINT(dora-conc-mutex-unannotated): this
                   // wrapper *is* the annotated capability.
};

/** RAII lock on a dora::Mutex, annotated as a scoped capability. */
class SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) ACQUIRE(m) : m_(m) { m_.lock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

    ~MutexLock() RELEASE() { m_.unlock(); }

  private:
    Mutex &m_;
};

} // namespace dora

#endif // DORA_COMMON_MUTEX_HH
