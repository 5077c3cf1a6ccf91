/**
 * @file
 * Error reporting.
 *
 * Follows the gem5 convention: panic() for internal simulator bugs
 * (conditions that should be impossible), fatal() for user errors
 * (bad configuration), warn() for questionable behaviour.  Tracing goes
 * through the flight recorder (obs/trace.hh), not through here.
 */

#ifndef FIREFLY_SIM_LOGGING_HH
#define FIREFLY_SIM_LOGGING_HH

#include <cstdarg>

namespace firefly
{

/** Abort the simulation: internal invariant violated (simulator bug). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Exit the simulation: unusable user configuration or input. */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Non-fatal warning about questionable behaviour. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace firefly

#endif // FIREFLY_SIM_LOGGING_HH
