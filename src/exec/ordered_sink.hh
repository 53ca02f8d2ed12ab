/**
 * @file
 * OrderedSink: hands unit results to a consumer in unit order. Both
 * dispatch arms use it, the threads of the cell executor
 * (sim/cell_executor.hh) and the worker processes of
 * forEachUnitInWorkers() (exec/proc/supervisor.hh), so a campaign
 * folds its results in the same order on either arm.
 */

#ifndef DORA_EXEC_ORDERED_SINK_HH
#define DORA_EXEC_ORDERED_SINK_HH

#include <cstddef>
#include <functional>
#include <map>
#include <utility>

#include "common/mutex.hh"

namespace dora
{

/**
 * Hands unit results to a consumer in unit order, parking the ones
 * that land early. Safe to feed from several threads. The consumer
 * runs under the lock, on whichever thread completed the next-in-line
 * unit: holding it is what keeps consumer calls one at a time and in
 * order. Memory holds only the units that finished ahead of an
 * earlier one.
 */
template <typename U>
class OrderedSink
{
  public:
    /** @p next is the first unit the consumer expects. */
    OrderedSink(const std::function<void(size_t, U &&)> &consume,
                size_t next)
        : consume_(consume), next_(next)
    {
    }

    void deliver(size_t unit, U &&value) EXCLUDES(mutex_)
    {
        MutexLock lock(mutex_);
        parked_.emplace(unit, std::move(value));
        while (!parked_.empty() && parked_.begin()->first == next_) {
            consume_(next_++, std::move(parked_.begin()->second));
            parked_.erase(parked_.begin());
        }
    }

  private:
    const std::function<void(size_t, U &&)> &consume_;
    Mutex mutex_;
    size_t next_ GUARDED_BY(mutex_);
    std::map<size_t, U> parked_ GUARDED_BY(mutex_);
};

} // namespace dora

#endif // DORA_EXEC_ORDERED_SINK_HH
