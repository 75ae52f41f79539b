/**
 * @file
 * Hardened environment-variable parsing. Every NPP_* knob goes through
 * parseEnvInt / parseEnvBool so that garbage, zero/negative, and
 * out-of-range values produce one logged warning and a sane fallback
 * instead of a silent misconfiguration (NPP_THREADS=abc used to mean
 * "1 thread", NPP_EVAL_CACHE_MB=-1 used to mean "cache disabled by
 * overflow", NPP_EVAL_CACHE=off used to mean "cache enabled").
 */

#ifndef NPP_SUPPORT_ENV_H
#define NPP_SUPPORT_ENV_H

#include <cstdint>
#include <optional>
#include <string>

namespace npp {

/**
 * Parse a whole string as a decimal integer (surrounding whitespace
 * allowed). Non-numeric text, trailing junk and overflow yield nullopt
 * — the strict core behind parseEnvInt and the CLI's numeric flags.
 */
std::optional<int64_t> parseInt64(const std::string &text);

/** parseInt64's contract for a finite floating-point value. */
std::optional<double> parseFiniteDouble(const std::string &text);

/**
 * Read an integer environment variable with validation.
 *
 * Returns `fallback` (without a warning) when the variable is unset.
 * Otherwise the value must parse completely as a decimal integer and lie
 * inside [lo, hi]; non-numeric text, trailing junk, overflow, and
 * out-of-range values log one NPP_WARN naming the variable and the
 * accepted range, then return `fallback`.
 */
int64_t parseEnvInt(const char *name, int64_t fallback, int64_t lo,
                    int64_t hi);

/**
 * Read a boolean environment variable with validation (same
 * warn+fallback contract as parseEnvInt).
 *
 * Returns `fallback` (without a warning) when the variable is unset.
 * Accepted spellings, case-insensitive and whitespace-trimmed:
 * "1"/"true"/"on"/"yes" for true, "0"/"false"/"off"/"no" for false.
 * Anything else ("00", "disable", "2", "") logs one NPP_WARN naming the
 * variable and the accepted spellings, then returns `fallback`.
 */
bool parseEnvBool(const char *name, bool fallback);

/**
 * Read a string environment variable with hardening.
 *
 * Returns the value with leading/trailing whitespace trimmed. Unset,
 * empty, and whitespace-only values all return `fallback` — an exported
 * `NPP_EVAL_CACHE_DIR=""` must mean "unset", not "disk cache rooted at
 * the current directory". No warning is logged: an empty string is a
 * legitimate way to clear a knob.
 */
std::string parseEnvString(const char *name,
                           const std::string &fallback = {});

} // namespace npp

#endif // NPP_SUPPORT_ENV_H
