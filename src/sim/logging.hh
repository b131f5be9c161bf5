/**
 * @file
 * Status and error reporting in the gem5 idiom: panic() for simulator
 * bugs, fatal() for user errors, warn() for survivable conditions.
 */

#ifndef TSS_SIM_LOGGING_HH
#define TSS_SIM_LOGGING_HH

#include <cstdarg>

namespace tss
{

/**
 * Report an internal simulator bug and abort (may dump core). Use for
 * conditions that can never happen regardless of user input.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a user error (bad configuration, invalid arguments) and exit
 * with status 1.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Warn about suspicious but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Implementation helper for TSS_ASSERT; do not call directly. */
[[noreturn]] void panicAssert(const char *cond, const char *file,
                              int line, const char *fmt = "", ...)
    __attribute__((format(printf, 4, 5)));

/** panic() unless the condition holds; optional printf-style detail. */
#define TSS_ASSERT(cond, ...) \
    do { \
        if (!(cond)) \
            ::tss::panicAssert(#cond, __FILE__, __LINE__, \
                               ##__VA_ARGS__); \
    } while (0)

} // namespace tss

#endif // TSS_SIM_LOGGING_HH
