#include "support/env.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>

#include "support/logging.h"

namespace npp {

namespace {

/** Parse all of `text` with a strtoX function (which skips leading
 *  whitespace); trailing whitespace is allowed, anything else is not. */
template <typename T, typename StrTo>
std::optional<T>
parseWhole(const std::string &text, StrTo strto)
{
    const char *p = text.c_str();
    char *end = nullptr;
    errno = 0;
    const T value = strto(p, &end);
    if (end == p || errno == ERANGE)
        return std::nullopt;
    while (std::isspace(static_cast<unsigned char>(*end)))
        end++;
    if (*end)
        return std::nullopt;
    return value;
}

} // namespace

std::optional<int64_t>
parseInt64(const std::string &text)
{
    return parseWhole<int64_t>(text, [](const char *p, char **end) {
        return std::strtoll(p, end, 10);
    });
}

std::optional<double>
parseFiniteDouble(const std::string &text)
{
    const std::optional<double> value =
        parseWhole<double>(text, [](const char *p, char **end) {
            return std::strtod(p, end);
        });
    if (!value || !std::isfinite(*value))
        return std::nullopt;
    return value;
}

int64_t
parseEnvInt(const char *name, int64_t fallback, int64_t lo, int64_t hi)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;

    const std::optional<int64_t> parsed = parseInt64(env);
    if (!parsed) {
        NPP_WARN("{}={} is not an integer; using {}", name, env, fallback);
        return fallback;
    }
    if (*parsed < lo || *parsed > hi) {
        NPP_WARN("{}={} outside [{}, {}]; using {}", name, env, lo, hi,
                 fallback);
        return fallback;
    }
    return *parsed;
}

bool
parseEnvBool(const char *name, bool fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;

    const char *begin = env;
    while (std::isspace(static_cast<unsigned char>(*begin)))
        begin++;
    const char *end = begin;
    while (*end && !std::isspace(static_cast<unsigned char>(*end)))
        end++;
    std::string word(begin, end);
    while (*end && std::isspace(static_cast<unsigned char>(*end)))
        end++;
    for (char &c : word)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));

    if (*end == '\0') {
        if (word == "1" || word == "true" || word == "on" || word == "yes")
            return true;
        if (word == "0" || word == "false" || word == "off" || word == "no")
            return false;
    }
    NPP_WARN("{}={} is not a boolean (1/true/on/yes or 0/false/off/no); "
             "using {}",
             name, env, fallback ? "true" : "false");
    return fallback;
}

std::string
parseEnvString(const char *name, const std::string &fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    const char *begin = env;
    while (std::isspace(static_cast<unsigned char>(*begin)))
        begin++;
    const char *end = begin + std::string::traits_type::length(begin);
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(end[-1])))
        end--;
    if (end == begin)
        return fallback;
    return std::string(begin, end);
}

} // namespace npp
