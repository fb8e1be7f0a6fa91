/**
 * @file
 * Leveled logging with an environment override: EEL_LOG=debug (or
 * info/warn/error/silent) sets the threshold below which messages
 * are dropped. Every status line in the tree goes through logf().
 *
 * Deliberately dependency-free (no src/support include) so the obs
 * library sits below everything else in the link order.
 */

#ifndef EEL_OBS_LOG_HH
#define EEL_OBS_LOG_HH

namespace eel::obs {

enum class LogLevel : int {
    Debug = 0,
    Info,
    Warn,
    Error,
    Silent,  ///< EEL_LOG=silent: nothing at all
};

/** Current threshold; first call reads EEL_LOG (default Info). */
LogLevel logLevel();

/** Override the threshold programmatically (tests, --verbose). */
void setLogLevel(LogLevel level);

/** Re-read EEL_LOG, discarding any override (tests). */
void reloadLogLevelFromEnv();

inline bool
logEnabled(LogLevel level)
{
    return level >= logLevel() && logLevel() != LogLevel::Silent;
}

/** printf-style message to stderr, prefixed by a wall-clock
 *  timestamp, the level, and the calling thread's name, dropped when
 *  below the threshold:
 *      14:02:11.123 info  [pool-worker-2] message
 *  A daemon's interleaved per-connection logs are unreadable without
 *  the stamp and the thread tag; setThreadName() (trace.hh) names
 *  the thread on both the trace and the log side at once. */
void logf(LogLevel level, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/** The calling thread's log/trace name: the name set by
 *  setThreadName(), or "main" for the first thread seen and "t<N>"
 *  for later unnamed ones. */
const char *logThreadName();

namespace detail {
/** Called by setThreadName() to keep the log tag in sync. */
void setLogThreadName(const char *name);
} // namespace detail

} // namespace eel::obs

#endif // EEL_OBS_LOG_HH
