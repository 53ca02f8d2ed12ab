#include "exec/proc/supervisor.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/mutex.hh"
#include "exec/proc/journal.hh"
#include "exec/proc/wire.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace dora
{

namespace
{

// ---------------------------------------------------------------- //
// Signal-driven drain flag (async-signal-safe: lock-free atomics)  //
// ---------------------------------------------------------------- //

std::atomic<int> g_drainSignal{0};
std::atomic<int> g_drainCount{0};

void
drainHandler(int sig)
{
    g_drainSignal.store(sig, std::memory_order_relaxed);
    g_drainCount.fetch_add(1, std::memory_order_relaxed);
}

/** Wall clock for watchdogs/backoff (host time; never in results). */
double
monotonicSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
writeAll(int fd, const char *p, size_t n)
{
    while (n > 0) {
        const ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

// ---------------------------------------------------------------- //
// Worker side                                                      //
// ---------------------------------------------------------------- //

/**
 * Write side of the worker->supervisor pipe. Result frames (main
 * loop) and heartbeat frames (beat thread) interleave on the same fd,
 * so a frame must never be written without holding mutex — sendLocked
 * carries REQUIRES(mutex), making an unguarded write a compile error
 * under -Wthread-safety instead of a rare interleaved-frame
 * corruption at runtime.
 */
struct WorkerPipe
{
    Mutex mutex;
    const int fd;

    explicit WorkerPipe(int write_fd) : fd(write_fd) {}

    bool sendLocked(const std::string &bytes) REQUIRES(mutex)
    {
        return writeAll(fd, bytes.data(), bytes.size());
    }
};

/**
 * Child-process main: read dispatches, evaluate units, stream back
 * results, and keep a heartbeat flowing while a unit is running.
 * Exits via _exit() only — the child must never unwind into the
 * parent's atexit/static-destructor machinery.
 */
[[noreturn]] void
workerMain(int rfd, int wfd, const ProcUnitFn &run_unit,
           const ProcSweepConfig &config)
{
    WorkerPipe pipe(wfd);
    std::atomic<bool> working{false};
    std::atomic<uint64_t> working_unit{0};
    std::atomic<uint32_t> working_attempt{0};
    std::atomic<bool> quit{false};

    std::thread beat([&] {
        const auto interval = std::chrono::duration<double>(
            std::max(0.01, config.heartbeatIntervalSec));
        while (!quit.load(std::memory_order_relaxed)) {
            std::this_thread::sleep_for(interval);
            if (!working.load(std::memory_order_relaxed))
                continue;
            Frame hb;
            hb.type = FrameType::Heartbeat;
            hb.unit = working_unit.load(std::memory_order_relaxed);
            hb.attempt =
                working_attempt.load(std::memory_order_relaxed);
            const std::string bytes = encodeFrame(hb);
            MutexLock lock(pipe.mutex);
            if (!pipe.sendLocked(bytes))
                return;  // supervisor gone; main loop will see EOF/EPIPE
        }
    });
    beat.detach();  // torn down by _exit

    FrameParser parser;
    char buf[4096];
    bool done = false;
    while (!done) {
        const ssize_t r = ::read(rfd, buf, sizeof(buf));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (r == 0)
            break;  // supervisor closed the dispatch pipe
        parser.feed(buf, static_cast<size_t>(r));
        Frame frame;
        while (!done && parser.next(&frame)) {
            if (frame.type == FrameType::Shutdown) {
                done = true;
                break;
            }
            if (frame.type != FrameType::Dispatch)
                continue;

            working_unit.store(frame.unit, std::memory_order_relaxed);
            working_attempt.store(frame.attempt,
                                  std::memory_order_relaxed);
            working.store(true, std::memory_order_relaxed);

            Frame reply;
            reply.unit = frame.unit;
            reply.attempt = frame.attempt;
            try {
                reply.payload = run_unit(frame.unit);
                reply.type = FrameType::Result;
            } catch (const std::exception &e) {
                warn("proc worker: unit %llu attempt %u threw: %s",
                     static_cast<unsigned long long>(frame.unit),
                     frame.attempt, e.what());
                reply.type = FrameType::WorkerError;
                reply.payload = e.what();
            } catch (...) {
                warn("proc worker: unit %llu attempt %u threw a "
                     "non-std exception",
                     static_cast<unsigned long long>(frame.unit),
                     frame.attempt);
                reply.type = FrameType::WorkerError;
                reply.payload = "non-std exception";
            }
            working.store(false, std::memory_order_relaxed);

            const std::string bytes = encodeFrame(reply);
            MutexLock lock(pipe.mutex);
            if (!pipe.sendLocked(bytes)) {
                done = true;
                break;
            }
        }
        if (parser.corrupted())
            break;
    }
    quit.store(true, std::memory_order_relaxed);
    ::_exit(0);
}

// ---------------------------------------------------------------- //
// Supervisor side                                                  //
// ---------------------------------------------------------------- //

/** One worker subprocess as the supervisor sees it. */
struct WorkerSlot
{
    pid_t pid = -1;
    int toChild = -1;
    int fromChild = -1;
    FrameParser parser;
    bool busy = false;
    uint64_t unit = 0;
    uint32_t attempt = 0;
    double unitStart = 0.0;
    double lastBeat = 0.0;
};

/** A unit waiting for (re-)dispatch. */
struct PendingUnit
{
    uint64_t unit = 0;
    uint32_t attempt = 1;     //!< attempt number this dispatch will be
    double eligibleAt = 0.0;  //!< backoff gate (monotonic seconds)
};

/** A supervisor incident destined for the run trace. */
struct Incident
{
    uint64_t unit = 0;
    uint32_t attempt = 0;
    const char *kind = "";
    std::string detail;
};

std::string
describeExit(int status)
{
    if (WIFSIGNALED(status))
        return std::string("worker killed by signal ") +
            std::to_string(WTERMSIG(status));
    if (WIFEXITED(status))
        return std::string("worker exited with status ") +
            std::to_string(WEXITSTATUS(status));
    return "worker vanished";
}

class Supervisor
{
  public:
    Supervisor(const ProcSweepConfig &config, uint64_t unit_count,
               const ProcUnitFn &run_unit)
        : config_(config), unitCount_(unit_count), runUnit_(run_unit)
    {
        report_.completed.assign(unit_count, 0);
        lastError_.resize(unit_count);
    }

    ProcSweepReport run();

  private:
    void resumeFromJournal();
    void notifyComplete(uint64_t unit, const std::string &payload);
    void spawnWorker(WorkerSlot &slot);
    void reapWorkers(double now);
    void drainWorkerPipe(WorkerSlot &slot, double now);
    void handleFrame(WorkerSlot &slot, const Frame &frame, double now);
    void completeUnit(uint64_t unit, const std::string &payload);
    void failUnit(uint64_t unit, uint32_t attempt,
                  const std::string &error, double now);
    void dispatchEligible(double now);
    void pollWorkers(double now);
    void enforceWatchdogs(double now);
    void shutdownWorkers();
    void emitTrace();

    bool finished() const
    {
        return doneCount_ + quarantinedCount_ >= unitCount_;
    }

    bool anyBusy() const
    {
        for (const auto &slot : slots_)
            if (slot.pid > 0 && slot.busy)
                return true;
        return false;
    }

    const ProcSweepConfig &config_;
    const uint64_t unitCount_;
    const ProcUnitFn &runUnit_;

    ProcSweepReport report_;
    ResultsJournal journal_;
    std::vector<WorkerSlot> slots_;
    std::deque<PendingUnit> pending_;
    std::vector<std::string> lastError_;
    std::vector<Incident> incidents_;
    uint64_t doneCount_ = 0;
    uint64_t quarantinedCount_ = 0;
    bool forcedStop_ = false;
};

void
Supervisor::notifyComplete(uint64_t unit, const std::string &payload)
{
    if (config_.onUnitComplete)
        config_.onUnitComplete(unit, payload);
}

void
Supervisor::resumeFromJournal()
{
    if (config_.journalPath.empty())
        return;
    if (!journal_.open(config_.journalPath, config_.campaignHash,
                       unitCount_))
        fatal("proc supervisor: %s", journal_.error().c_str());
    for (const auto &[unit, payload] : journal_.loaded()) {
        if (unit >= unitCount_ || report_.completed[unit])
            continue;
        report_.completed[unit] = 1;
        ++doneCount_;
        ++report_.unitsResumed;
        notifyComplete(unit, payload);
    }
    if (report_.unitsResumed > 0)
        inform("proc supervisor: resumed %llu/%llu units from %s",
               static_cast<unsigned long long>(report_.unitsResumed),
               static_cast<unsigned long long>(unitCount_),
               config_.journalPath.c_str());
}

void
Supervisor::spawnWorker(WorkerSlot &slot)
{
    int to_child[2], from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0)
        fatal("proc supervisor: pipe: %s", std::strerror(errno));
    const pid_t pid = ::fork();
    if (pid < 0)
        fatal("proc supervisor: fork: %s", std::strerror(errno));
    if (pid == 0) {
        // Child: keep only this worker's pipe ends.
        ::close(to_child[1]);
        ::close(from_child[0]);
        for (const auto &other : slots_) {
            if (other.toChild >= 0)
                ::close(other.toChild);
            if (other.fromChild >= 0)
                ::close(other.fromChild);
        }
        workerMain(to_child[0], from_child[1], runUnit_, config_);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    slot.pid = pid;
    slot.toChild = to_child[1];
    slot.fromChild = from_child[0];
    slot.parser = FrameParser();
    slot.busy = false;
    ::fcntl(slot.fromChild, F_SETFL, O_NONBLOCK);
}

void
Supervisor::completeUnit(uint64_t unit, const std::string &payload)
{
    if (unit >= unitCount_ || report_.completed[unit])
        return;  // duplicate (late result after a timeout retry)
    report_.completed[unit] = 1;
    ++doneCount_;
    ++report_.unitsRun;
    if (journal_.isOpen() && !journal_.append(unit, payload))
        warn("proc supervisor: journal append failed (%s); campaign "
             "continues but will not resume past unit %llu",
             journal_.error().c_str(),
             static_cast<unsigned long long>(unit));
    notifyComplete(unit, payload);
}

void
Supervisor::failUnit(uint64_t unit, uint32_t attempt,
                     const std::string &error, double now)
{
    if (unit >= unitCount_ || report_.completed[unit])
        return;
    lastError_[unit] = error;
    if (attempt >= config_.maxAttempts) {
        report_.quarantined.push_back(
            ProcUnitFailure{unit, attempt, error});
        ++quarantinedCount_;
        incidents_.push_back(
            Incident{unit, attempt, "quarantine", error});
        MetricsRegistry::global()
            .counter("proc.quarantined_units")
            .add();
        warn("proc supervisor: unit %llu quarantined after %u "
             "attempts: %s",
             static_cast<unsigned long long>(unit), attempt,
             error.c_str());
        return;
    }
    const double backoff = config_.retryBackoffSec *
        static_cast<double>(1ull << (attempt - 1));
    pending_.push_back(PendingUnit{unit, attempt + 1, now + backoff});
    ++report_.retries;
    incidents_.push_back(Incident{unit, attempt, "retry", error});
    MetricsRegistry::global().counter("proc.retries").add();
}

void
Supervisor::handleFrame(WorkerSlot &slot, const Frame &frame,
                        double now)
{
    switch (frame.type) {
      case FrameType::Heartbeat:
        slot.lastBeat = now;
        break;
      case FrameType::Result:
        slot.lastBeat = now;
        if (slot.busy && frame.unit == slot.unit)
            slot.busy = false;
        completeUnit(frame.unit, frame.payload);
        break;
      case FrameType::WorkerError:
        slot.lastBeat = now;
        if (slot.busy && frame.unit == slot.unit)
            slot.busy = false;
        failUnit(frame.unit, frame.attempt, frame.payload, now);
        break;
      default:
        // Dispatch/Shutdown never travel worker -> supervisor; the
        // parser accepted the frame, so just ignore it.
        break;
    }
}

void
Supervisor::drainWorkerPipe(WorkerSlot &slot, double now)
{
    char buf[64 * 1024];
    for (;;) {
        const ssize_t r = ::read(slot.fromChild, buf, sizeof(buf));
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break;  // EAGAIN or real error: stop draining
        }
        if (r == 0)
            break;
        slot.parser.feed(buf, static_cast<size_t>(r));
    }
    Frame frame;
    while (slot.parser.next(&frame))
        handleFrame(slot, frame, now);
    if (slot.parser.corrupted() && slot.pid > 0) {
        warn("proc supervisor: worker %d stream corrupted; killing",
             static_cast<int>(slot.pid));
        ::kill(slot.pid, SIGKILL);
    }
}

void
Supervisor::reapWorkers(double now)
{
    for (auto &slot : slots_) {
        if (slot.pid <= 0)
            continue;
        int status = 0;
        const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
        if (r != slot.pid)
            continue;
        // Salvage any results written before death: a timeout kill
        // can race a result already sitting in the pipe.
        drainWorkerPipe(slot, now);
        ::close(slot.toChild);
        ::close(slot.fromChild);
        slot.toChild = slot.fromChild = -1;
        const pid_t died = slot.pid;
        slot.pid = -1;
        if (slot.busy) {
            slot.busy = false;
            ++report_.workerCrashes;
            MetricsRegistry::global()
                .counter("proc.worker_crashes")
                .add();
            const std::string why = describeExit(status);
            incidents_.push_back(
                Incident{slot.unit, slot.attempt, "crash", why});
            warn("proc supervisor: worker %d died (%s) while running "
                 "unit %llu attempt %u",
                 static_cast<int>(died), why.c_str(),
                 static_cast<unsigned long long>(slot.unit),
                 slot.attempt);
            failUnit(slot.unit, slot.attempt, why, now);
        }
    }
}

void
Supervisor::dispatchEligible(double now)
{
    for (auto &slot : slots_) {
        if (slot.pid <= 0 || slot.busy)
            continue;
        // First pending unit whose backoff has elapsed and that was
        // not completed while it waited (late duplicate results).
        auto it = pending_.begin();
        while (it != pending_.end() &&
               (it->eligibleAt > now || report_.completed[it->unit]))
            it = report_.completed[it->unit] ? pending_.erase(it)
                                            : std::next(it);
        if (it == pending_.end())
            continue;
        const PendingUnit unit = *it;
        pending_.erase(it);

        Frame dispatch;
        dispatch.type = FrameType::Dispatch;
        dispatch.unit = unit.unit;
        dispatch.attempt = unit.attempt;
        const std::string bytes = encodeFrame(dispatch);
        if (!writeAll(slot.toChild, bytes.data(), bytes.size())) {
            // Broken dispatch pipe: the worker is dead or dying; put
            // the unit back and let reap handle the corpse.
            pending_.push_front(unit);
            ::kill(slot.pid, SIGKILL);
            continue;
        }
        slot.busy = true;
        slot.unit = unit.unit;
        slot.attempt = unit.attempt;
        slot.unitStart = now;
        slot.lastBeat = now;
    }
}

void
Supervisor::pollWorkers(double now)
{
    std::vector<pollfd> fds;
    std::vector<size_t> owner;
    for (size_t i = 0; i < slots_.size(); ++i) {
        if (slots_[i].pid <= 0)
            continue;
        fds.push_back(pollfd{slots_[i].fromChild, POLLIN, 0});
        owner.push_back(i);
    }
    if (fds.empty()) {
        // Nothing to listen to (all workers dead or not yet spawned):
        // sleep one scheduling quantum instead of spinning.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return;
    }
    const int r =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 20);
    if (r <= 0)
        return;
    for (size_t k = 0; k < fds.size(); ++k)
        if (fds[k].revents & (POLLIN | POLLHUP | POLLERR))
            drainWorkerPipe(slots_[owner[k]], now);
}

void
Supervisor::enforceWatchdogs(double now)
{
    for (auto &slot : slots_) {
        if (slot.pid <= 0 || !slot.busy)
            continue;
        const bool timed_out =
            now - slot.unitStart > config_.unitTimeoutSec;
        const bool silent =
            now - slot.lastBeat > config_.heartbeatTimeoutSec;
        if (!timed_out && !silent)
            continue;
        warn("proc supervisor: unit %llu attempt %u %s; killing "
             "worker %d",
             static_cast<unsigned long long>(slot.unit), slot.attempt,
             timed_out ? "exceeded its timeout" : "stopped heartbeating",
             static_cast<int>(slot.pid));
        ::kill(slot.pid, SIGKILL);
        // reapWorkers() turns the corpse into the crash/retry path.
    }
}

void
Supervisor::shutdownWorkers()
{
    Frame bye;
    bye.type = FrameType::Shutdown;
    const std::string bytes = encodeFrame(bye);
    for (auto &slot : slots_) {
        if (slot.pid <= 0)
            continue;
        if (!writeAll(slot.toChild, bytes.data(), bytes.size()))
            ::kill(slot.pid, SIGKILL);
        ::close(slot.toChild);
        slot.toChild = -1;
    }
    const double deadline = monotonicSec() + 5.0;
    for (auto &slot : slots_) {
        if (slot.pid <= 0)
            continue;
        int status = 0;
        for (;;) {
            const pid_t r = ::waitpid(slot.pid, &status, WNOHANG);
            if (r == slot.pid || r < 0)
                break;
            if (monotonicSec() > deadline) {
                ::kill(slot.pid, SIGKILL);
                ::waitpid(slot.pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        if (slot.fromChild >= 0)
            ::close(slot.fromChild);
        slot.pid = -1;
        slot.fromChild = -1;
    }
}

void
Supervisor::emitTrace()
{
    TraceSession *session = TraceSession::active();
    if (session == nullptr || incidents_.empty())
        return;
    // Incidents in (unit, attempt, kind) order: the trace is a
    // function of *what* failed, never of when the supervisor
    // observed it.
    std::sort(incidents_.begin(), incidents_.end(),
              [](const Incident &a, const Incident &b) {
                  if (a.unit != b.unit)
                      return a.unit < b.unit;
                  if (a.attempt != b.attempt)
                      return a.attempt < b.attempt;
                  return std::strcmp(a.kind, b.kind) < 0;
              });
    RunTrace trace("proc:supervisor");
    trace.setMeta("units_total", uint64_t(unitCount_));
    trace.setMeta("units_resumed", report_.unitsResumed);
    trace.setMeta("worker_crashes", report_.workerCrashes);
    trace.setMeta("retries", report_.retries);
    trace.setMeta("quarantined",
                  uint64_t(report_.quarantined.size()));
    for (const auto &incident : incidents_)
        trace.instant(0.0, "proc", incident.kind,
                      {{"unit", incident.unit},
                       {"attempt", incident.attempt},
                       {"detail", incident.detail}});
    session->submit(std::move(trace));
}

ProcSweepReport
Supervisor::run()
{
    resumeFromJournal();

    for (uint64_t u = 0; u < unitCount_; ++u)
        if (!report_.completed[u])
            pending_.push_back(PendingUnit{u, 1, 0.0});

    if (pending_.empty()) {
        journal_.close();
        MetricsRegistry::global()
            .counter("proc.units_resumed")
            .add(report_.unitsResumed);
        return std::move(report_);
    }

    // Drain on SIGINT/SIGTERM; ignore SIGPIPE around pipe writes.
    g_drainSignal.store(0, std::memory_order_relaxed);
    g_drainCount.store(0, std::memory_order_relaxed);
    struct sigaction drain_action = {};
    drain_action.sa_handler = drainHandler;
    ::sigemptyset(&drain_action.sa_mask);
    struct sigaction old_int, old_term, old_pipe;
    struct sigaction ignore_pipe = {};
    ignore_pipe.sa_handler = SIG_IGN;
    ::sigemptyset(&ignore_pipe.sa_mask);
    ::sigaction(SIGINT, &drain_action, &old_int);
    ::sigaction(SIGTERM, &drain_action, &old_term);
    ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

    const uint32_t worker_count = std::max(1u, config_.workers);
    slots_.resize(worker_count);

    bool draining = false;
    while (!finished()) {
        const double now = monotonicSec();

        if (!draining &&
            g_drainCount.load(std::memory_order_relaxed) > 0) {
            draining = true;
            report_.drained = true;
            report_.drainSignal =
                g_drainSignal.load(std::memory_order_relaxed);
            inform("proc supervisor: draining on signal %d (%llu/%llu "
                   "units done); in-flight units will finish and "
                   "journal",
                   report_.drainSignal,
                   static_cast<unsigned long long>(doneCount_),
                   static_cast<unsigned long long>(unitCount_));
        }
        if (draining && !forcedStop_ &&
            g_drainCount.load(std::memory_order_relaxed) > 1) {
            forcedStop_ = true;
            for (auto &slot : slots_)
                if (slot.pid > 0 && slot.busy)
                    ::kill(slot.pid, SIGKILL);
        }

        reapWorkers(now);
        if (draining) {
            if (!anyBusy())
                break;
        } else {
            // Keep the fleet at strength while work remains.
            const uint64_t open_units =
                unitCount_ - doneCount_ - quarantinedCount_;
            uint64_t live = 0;
            for (auto &slot : slots_)
                if (slot.pid > 0)
                    ++live;
            for (auto &slot : slots_) {
                if (live >= open_units)
                    break;
                if (slot.pid <= 0) {
                    spawnWorker(slot);
                    ++live;
                }
            }
            dispatchEligible(now);
        }
        pollWorkers(now);
        enforceWatchdogs(monotonicSec());
    }

    shutdownWorkers();
    journal_.close();

    ::sigaction(SIGINT, &old_int, nullptr);
    ::sigaction(SIGTERM, &old_term, nullptr);
    ::sigaction(SIGPIPE, &old_pipe, nullptr);

    MetricsRegistry::global()
        .counter("proc.units_run")
        .add(report_.unitsRun);
    MetricsRegistry::global()
        .counter("proc.units_resumed")
        .add(report_.unitsResumed);
    emitTrace();
    return std::move(report_);
}

} // namespace

ProcSweepReport
runProcSweep(const ProcSweepConfig &config, uint64_t unit_count,
             const ProcUnitFn &run_unit)
{
    if (!run_unit)
        fatal("runProcSweep: null unit function");
    Supervisor supervisor(config, unit_count, run_unit);
    return supervisor.run();
}

} // namespace dora
