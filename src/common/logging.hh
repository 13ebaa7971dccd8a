/**
 * @file
 * Status and error reporting in the gem5 idiom.
 *
 * panic()  — an internal invariant was violated (a Mokey bug); aborts.
 * fatal()  — the user asked for something impossible (bad config);
 *            exits with an error code.
 * warn()   — something works but not as well as it should.
 * inform() — plain status output.
 */

#ifndef MOKEY_COMMON_LOGGING_HH
#define MOKEY_COMMON_LOGGING_HH

#include <cstdarg>
#include <string>

namespace mokey
{

/** Print a formatted message and abort(); use for internal bugs. */
[[noreturn]] void panic(const char *fmt, ...);

/** Print a formatted message and exit(1); use for user errors. */
[[noreturn]] void fatal(const char *fmt, ...);

/**
 * MOKEY_ASSERT's failure path: print the failed condition, then the
 * formatted explanation, and abort(). The condition is passed as an
 * argument, never spliced into the format, so a '%' in it is inert.
 */
[[noreturn]] void assertFailed(const char *cond, const char *fmt, ...);

/** Print a formatted warning to stderr. */
void warn(const char *fmt, ...);

/** Print a formatted status message to stderr. */
void inform(const char *fmt, ...);

/**
 * Assert an internal invariant with a formatted explanation.
 * Compiled in all build types — simulator correctness depends on it.
 */
#define MOKEY_ASSERT(cond, ...)                                          \
    do {                                                                 \
        if (!(cond))                                                     \
            ::mokey::assertFailed(#cond, __VA_ARGS__);                   \
    } while (0)

} // namespace mokey

#endif // MOKEY_COMMON_LOGGING_HH
