#include "obs/trace.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/cli.hh"
#include "common/exact_ticks.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "obs/metrics.hh"

namespace dora
{

namespace
{

/** The installed session; relaxed loads keep the disabled path free. */
std::atomic<TraceSession *> g_session{nullptr};

/** JSON string escaping (quotes, backslash, control characters). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Deterministic shortest-faithful JSON rendering of a double. */
std::string
jsonReal(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** Append `"key":value,` pairs of @p args as a JSON object. */
std::string
argsJson(const std::vector<TraceArg> &args)
{
    std::string out = "{";
    for (size_t i = 0; i < args.size(); ++i) {
        if (i)
            out += ',';
        out += '"';
        out += jsonEscape(args[i].key);
        out += "\":";
        out += args[i].value.toJson();
    }
    out += '}';
    return out;
}

} // namespace

std::string
TraceValue::toJson() const
{
    switch (kind) {
      case Kind::Uint:
        return std::to_string(u);
      case Kind::Int:
        return std::to_string(i);
      case Kind::Real:
        return jsonReal(d);
      case Kind::Boolean:
        return b ? "true" : "false";
      case Kind::Text:
        return "\"" + jsonEscape(s) + "\"";
    }
    return "null";
}

void
RunTrace::setMeta(const std::string &key, TraceValue value)
{
    meta_[key] = std::move(value);
}

const TraceValue *
RunTrace::meta(const std::string &key) const
{
    const auto it = meta_.find(key);
    return it == meta_.end() ? nullptr : &it->second;
}

void
RunTrace::instant(double t_sec, const char *cat, const char *name,
                  std::initializer_list<TraceArg> args)
{
    events_.push_back(TraceEvent{t_sec, -1.0, 'i', cat, name,
                                 std::vector<TraceArg>(args)});
}

void
RunTrace::begin(double t_sec, const char *cat, const char *name,
                std::initializer_list<TraceArg> args)
{
    events_.push_back(TraceEvent{t_sec, -1.0, 'B', cat, name,
                                 std::vector<TraceArg>(args)});
}

void
RunTrace::end(double t_sec, const char *cat, const char *name)
{
    events_.push_back(TraceEvent{t_sec, -1.0, 'E', cat, name, {}});
}

void
RunTrace::complete(double t_sec, double dur_sec, const char *cat,
                   const char *name,
                   std::initializer_list<TraceArg> args)
{
    events_.push_back(TraceEvent{t_sec, dur_sec, 'X', cat, name,
                                 std::vector<TraceArg>(args)});
}

std::string
RunTrace::toJsonl() const
{
    std::string out;
    out.reserve(256 + events_.size() * 96);
    out += "{\"run\":\"" + jsonEscape(key_) + "\",\"meta\":{";
    bool first = true;
    for (const auto &[key, value] : meta_) {
        if (!first)
            out += ',';
        first = false;
        out += '"';
        out += jsonEscape(key);
        out += "\":";
        out += value.toJson();
    }
    out += "}}\n";
    for (const auto &e : events_) {
        out += "{\"run\":\"" + jsonEscape(key_) + "\",\"t\":" +
            jsonReal(e.tSec);
        if (e.phase == 'X')
            out += ",\"dur\":" + jsonReal(e.durSec);
        out += ",\"ph\":\"";
        out += e.phase;
        out += "\",\"cat\":\"";
        out += jsonEscape(e.cat);
        out += "\",\"name\":\"";
        out += jsonEscape(e.name);
        out += '"';
        if (!e.args.empty())
            out += ",\"args\":" + argsJson(e.args);
        out += "}\n";
    }
    return out;
}

TraceSession::TraceSession(std::string dir, std::string label)
    : dir_(std::move(dir)), label_(std::move(label))
{
}

void
TraceSession::submit(RunTrace &&run)
{
    MutexLock lock(mutex_);
    runs_.push_back(std::move(run));
}

void
TraceSession::setManifestField(const std::string &key,
                               std::string value)
{
    MutexLock lock(mutex_);
    manifestFields_[key] = std::move(value);
}

size_t
TraceSession::runCount() const
{
    MutexLock lock(mutex_);
    return runs_.size();
}

bool
TraceSession::finalize()
{
    MutexLock lock(mutex_);
    return finalizeLocked();
}

bool
TraceSession::finalizeOnSignal(int sig)
{
    // Handler context: never block. A submit in flight on another
    // thread means we lose the flush, not the process's last moments.
    if (!mutex_.try_lock())
        return false;
    manifestFields_["truncated"] = "signal " + std::to_string(sig);
    const bool ok = finalizeLocked();
    mutex_.unlock();
    return ok;
}

bool
TraceSession::finalizeLocked()
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        warn("TraceSession: cannot create '%s': %s", dir_.c_str(),
             ec.message().c_str());
        return false;
    }

    // Deterministic order: sort by key, then by rendered content.
    // Parallel sweeps submit in completion order; identical inputs
    // always serialize to identical bytes, so this sort erases the
    // thread schedule from every artifact.
    struct Entry
    {
        const RunTrace *run;
        std::string jsonl;
    };
    std::vector<Entry> entries;
    entries.reserve(runs_.size());
    for (const auto &run : runs_)
        entries.push_back(Entry{&run, run.toJsonl()});
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.run->key() != b.run->key())
                      return a.run->key() < b.run->key();
                  return a.jsonl < b.jsonl;
              });

    const std::string events_path = dir_ + "/events.jsonl";
    const std::string chrome_path = dir_ + "/trace.json";
    const std::string manifest_path = dir_ + "/manifest.json";

    // --- events.jsonl ---
    size_t total_events = 0;
    {
        std::ofstream out(events_path, std::ios::trunc);
        for (const auto &entry : entries) {
            out << entry.jsonl;
            total_events += entry.run->events().size();
        }
        if (!out.good()) {
            warn("TraceSession: write to '%s' failed",
                 events_path.c_str());
            return false;
        }
    }

    // --- trace.json (Chrome trace-event format) ---
    {
        std::ofstream out(chrome_path, std::ios::trunc);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        bool first = true;
        auto emit = [&out, &first](const std::string &event) {
            if (!first)
                out << ",\n";
            first = false;
            out << event;
        };
        for (size_t i = 0; i < entries.size(); ++i) {
            emit("{\"ph\":\"M\",\"pid\":1,\"tid\":" +
                 std::to_string(i + 1) +
                 ",\"name\":\"thread_name\",\"args\":{\"name\":\"" +
                 jsonEscape(entries[i].run->key()) + "\"}}");
        }
        for (size_t i = 0; i < entries.size(); ++i) {
            const std::string tid = std::to_string(i + 1);
            for (const auto &e : entries[i].run->events()) {
                char ts[40];
                std::snprintf(ts, sizeof(ts), "%.3f", e.tSec * 1e6);
                std::string line = "{\"ph\":\"";
                line += e.phase;
                line += "\",\"pid\":1,\"tid\":" + tid + ",\"ts\":" + ts;
                if (e.phase == 'X') {
                    char dur[40];
                    std::snprintf(dur, sizeof(dur), "%.3f",
                                  e.durSec * 1e6);
                    line += ",\"dur\":";
                    line += dur;
                }
                if (e.phase == 'i')
                    line += ",\"s\":\"t\"";
                line += ",\"cat\":\"" + jsonEscape(e.cat) +
                    "\",\"name\":\"" + jsonEscape(e.name) + "\"";
                if (!e.args.empty())
                    line += ",\"args\":" + argsJson(e.args);
                line += "}";
                emit(line);
            }
        }
        out << "\n]}\n";
        if (!out.good()) {
            warn("TraceSession: write to '%s' failed",
                 chrome_path.c_str());
            return false;
        }
    }

    // --- manifest.json ---
    {
        // Combined digests: FNV over the sorted per-run meta values,
        // so one flipped bit in any run flips the manifest.
        std::string digest_text, config_text;
        for (const auto &entry : entries) {
            if (const TraceValue *d = entry.run->meta("digest"))
                digest_text += d->toJson() + "\n";
            if (const TraceValue *c = entry.run->meta("config_hash"))
                config_text += c->toJson() + "\n";
        }
        std::map<std::string, std::string> fields = manifestFields_;
        fields["schema"] = "dora-trace-v1";
        fields["label"] = label_;
        fields["git"] = gitDescribe();
        fields["rng_seed"] = hexU64(0x9E3779B97F4A7C15ull);
        fields["runs"] = std::to_string(entries.size());
        fields["events"] = std::to_string(total_events);
        fields["config_hash"] = hexU64(hashLabel(config_text));
        fields["measurement_digest"] = hexU64(hashLabel(digest_text));

        std::ofstream out(manifest_path, std::ios::trunc);
        out << "{\n";
        bool first = true;
        for (const auto &[key, value] : fields) {
            if (!first)
                out << ",\n";
            first = false;
            out << "  \"" << jsonEscape(key) << "\": \""
                << jsonEscape(value) << "\"";
        }
        out << "\n}\n";
        if (!out.good()) {
            warn("TraceSession: write to '%s' failed",
                 manifest_path.c_str());
            return false;
        }
    }
    return true;
}

TraceSession *
TraceSession::active()
{
    return g_session.load(std::memory_order_relaxed);
}

void
TraceSession::install(TraceSession *session)
{
    g_session.store(session, std::memory_order_release);
}

namespace
{

/** Session visible to the SIGINT/SIGTERM flush handler. */
std::atomic<TraceSession *> g_signalSession{nullptr};

/**
 * Best-effort-flush the active session with a `truncated` marker,
 * then die by the original signal (default disposition) so scripts
 * see the conventional exit status.
 */
void
traceSignalHandler(int sig)
{
    TraceSession *session =
        g_signalSession.load(std::memory_order_relaxed);
    if (session)
        session->finalizeOnSignal(sig);
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

/** Resolve the trace directory from --trace / DORA_TRACE ("" = off). */
std::string
traceDirFromArgs(int argc, char **argv)
{
    if (const auto dir = cliFlagValue(argc, argv, "--trace"))
        return *dir;
    if (const char *env = envNonEmpty("DORA_TRACE"))
        return env;
    return "";
}

} // namespace

ObsGuard::ObsGuard(int argc, char **argv, std::string label)
{
    // Every bench wraps main in an ObsGuard, so this is the single
    // place the --exact-ticks escape hatch is honored process-wide.
    parseExactTicksFlag(argc, argv);
    if (label.empty() && argc > 0 && argv && argv[0])
        label = std::filesystem::path(argv[0]).filename().string();
    const std::string dir = traceDirFromArgs(argc, argv);
    if (dir.empty())
        return;
    session_ = std::make_unique<TraceSession>(dir, label);
    TraceSession::install(session_.get());
    inform("obs: tracing to %s", dir.c_str());

    // A killed bench should still land its partial trace: flush with
    // a `truncated` marker, then re-raise so the exit status is the
    // conventional signal death.
    g_signalSession.store(session_.get());
    struct sigaction action = {};
    action.sa_handler = traceSignalHandler;
    ::sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, &oldInt_);
    ::sigaction(SIGTERM, &action, &oldTerm_);
    signalHooked_ = true;
}

ObsGuard::~ObsGuard()
{
    if (!session_)
        return;
    if (signalHooked_) {
        g_signalSession.store(nullptr);
        ::sigaction(SIGINT, &oldInt_, nullptr);
        ::sigaction(SIGTERM, &oldTerm_, nullptr);
    }
    TraceSession::install(nullptr);
    if (session_->finalize())
        inform("obs: wrote %zu run traces to %s",
               session_->runCount(), session_->dir().c_str());
    // The metrics snapshot is a multi-line block dump; the
    // rate-limited log sink is per-line.
    // NOLINTNEXTLINE(dora-hyg-stream)
    std::fputs(MetricsRegistry::global().snapshotText().c_str(),
               stderr);
}

std::string
gitDescribe()
{
    std::string out;
    if (FILE *pipe =
            popen("git describe --always --dirty 2>/dev/null", "r")) {
        char buf[128];
        while (std::fgets(buf, sizeof(buf), pipe))
            out += buf;
        pclose(pipe);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

std::string
hexU64(uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace dora
