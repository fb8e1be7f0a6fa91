/**
 * @file
 * Error reporting in the gem5 tradition: fatal for user errors,
 * panic for internal invariant violations, plus printf-style
 * formatting. Status messages go through the leveled obs logger
 * (obs::logf in src/obs/log.hh).
 */

#ifndef EEL_SUPPORT_LOGGING_HH
#define EEL_SUPPORT_LOGGING_HH

#include <cstdarg>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace eel {

/** Exception thrown by fatal(): the user asked for something invalid. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg)
        : std::runtime_error(msg) {}
};

/** Exception thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg)
        : std::logic_error(msg) {}
};

/** printf-style formatting into a std::string. */
std::string vstrfmt(const char *fmt, va_list ap);
std::string strfmt(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a condition that is the user's fault (bad input file, invalid
 * option) by throwing FatalError.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Report a condition that should never happen regardless of input —
 * an internal bug — by throwing PanicError.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace eel

#endif // EEL_SUPPORT_LOGGING_HH
