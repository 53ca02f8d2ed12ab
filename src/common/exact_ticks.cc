#include "common/exact_ticks.hh"

#include <atomic>
#include <cstring>

#include "common/cli.hh"
#include "common/logging.hh"

namespace dora
{

namespace
{

/** -1 = unresolved, 0 = adaptive, 1 = exact. */
std::atomic<int> g_exact{-1};

int
resolveFromEnv()
{
    // envNonEmpty warns when DORA_EXACT_TICKS is set-but-empty — a CI
    // matrix that meant to select a mode but exported nothing. Any
    // other value ("true", "yes", "2") is fatal: reading it as
    // adaptive would hide that the exact mode was asked for.
    const char *env = envNonEmpty("DORA_EXACT_TICKS");
    if (env == nullptr || std::strcmp(env, "0") == 0)
        return 0;
    if (std::strcmp(env, "1") == 0)
        return 1;
    fatal("$DORA_EXACT_TICKS: '%s' is neither 0 (adaptive) nor 1 "
          "(exact)", env);
}

} // namespace

bool
exactTicksMode()
{
    int state = g_exact.load(std::memory_order_relaxed);
    if (state < 0) {
        state = resolveFromEnv();
        // Benign race: concurrent first readers resolve to the same
        // value; an explicit setExactTicksMode() wins via exchange
        // ordering below only if it ran first, which is the documented
        // construction-time contract anyway.
        int expected = -1;
        g_exact.compare_exchange_strong(expected, state,
                                        std::memory_order_relaxed);
        state = g_exact.load(std::memory_order_relaxed);
    }
    return state == 1;
}

void
setExactTicksMode(bool exact)
{
    g_exact.store(exact ? 1 : 0, std::memory_order_relaxed);
}

bool
parseExactTicksFlag(int argc, char **argv)
{
    if (!cliHasFlag(argc, argv, "--exact-ticks"))
        return false;
    setExactTicksMode(true);
    return true;
}

} // namespace dora
