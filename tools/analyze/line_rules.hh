/**
 * @file
 * Internal to dora_analyze_core: the line-rule family
 * (line_rules.cc) and the path-scope helpers both rule families use.
 */

#ifndef DORA_TOOLS_ANALYZE_LINE_RULES_HH
#define DORA_TOOLS_ANALYZE_LINE_RULES_HH

#include <initializer_list>
#include <string>
#include <vector>

#include "analyze_engine.hh"

namespace dora::analyze
{

inline bool
hasPrefix(const std::string &path, const char *prefix)
{
    return path.rfind(prefix, 0) == 0;
}

inline bool
hasSuffix(const std::string &path, const char *suffix)
{
    const size_t len = std::char_traits<char>::length(suffix);
    return path.size() >= len &&
        path.compare(path.size() - len, len, suffix) == 0;
}

inline bool
anyPrefix(const std::string &path,
          std::initializer_list<const char *> prefixes)
{
    for (const char *p : prefixes)
        if (hasPrefix(path, p))
            return true;
    return false;
}

/**
 * Run the eleven line rules over one scanned unit, appending raw
 * findings; analyzeModel applies NOLINT and sorts.
 */
void lineRules(const ScannedUnit &unit, std::vector<Finding> &out);

} // namespace dora::analyze

#endif // DORA_TOOLS_ANALYZE_LINE_RULES_HH
