#include "common/cli.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "common/logging.hh"

namespace dora
{

std::optional<std::string>
cliFlagValue(int argc, char **argv, const std::string &flag)
{
    std::optional<std::string> value;
    const std::string inlinePrefix = flag + "=";
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (arg == nullptr)
            continue;
        if (std::strncmp(arg, inlinePrefix.c_str(),
                         inlinePrefix.size()) == 0) {
            value = arg + inlinePrefix.size();
        } else if (flag == arg) {
            if (i + 1 >= argc || argv[i + 1] == nullptr)
                fatal("%s: missing value (want '%s <value>' or "
                      "'%s=<value>')",
                      flag.c_str(), flag.c_str(), flag.c_str());
            value = argv[++i];
        }
    }
    return value;
}

bool
cliHasFlag(int argc, char **argv, const std::string &flag)
{
    bool present = false;
    const std::string inlinePrefix = flag + "=";
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (arg == nullptr)
            continue;
        if (flag == arg)
            present = true;
        else if (std::strncmp(arg, inlinePrefix.c_str(),
                              inlinePrefix.size()) == 0)
            fatal("%s: takes no value (got '%s')", flag.c_str(), arg);
    }
    return present;
}

void
cliRejectUnknownArgs(int argc, char **argv, const char *program,
                     std::initializer_list<std::string_view> value_flags,
                     std::initializer_list<std::string_view> switches)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const auto separated = [arg](std::string_view flag) {
            return arg == flag;
        };
        const auto inlined = [arg](std::string_view flag) {
            return arg.size() > flag.size() && arg.starts_with(flag) &&
                arg[flag.size()] == '=';
        };
        if (std::any_of(value_flags.begin(), value_flags.end(), separated))
            ++i;  // its value
        else if (std::none_of(switches.begin(), switches.end(), separated) &&
                 std::none_of(value_flags.begin(), value_flags.end(),
                              inlined))
            fatal("%s: unknown argument '%s'", program, arg.data());
    }
}

long
cliParseInt(const std::string &text, const char *origin, long min,
            long max)
{
    char *end = nullptr;
    const long value = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0')
        fatal("%s: malformed integer '%s'", origin, text.c_str());
    if (value < min || value > max)
        fatal("%s: %ld out of range [%ld, %ld]", origin, value, min,
              max);
    return value;
}

double
cliParseDouble(const std::string &text, const char *origin, double min,
               double max)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        fatal("%s: malformed number '%s'", origin, text.c_str());
    if (!(value >= min && value <= max))
        fatal("%s: %g out of range [%g, %g]", origin, value, min, max);
    return value;
}

const char *
envNonEmpty(const char *name)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return nullptr;
    if (*env == '\0') {
        warn("$%s is set but empty; treating it as unset", name);
        return nullptr;
    }
    return env;
}

} // namespace dora
