/**
 * @file
 * Status-message and error-reporting helpers in the spirit of gem5's
 * base/logging.hh.
 *
 * Severity ladder:
 *   - panic():  an internal invariant of MINOS itself is broken; aborts.
 *   - fatal():  the user asked for something impossible (bad config);
 *               exits with status 1.
 *   - warn():   something is degraded but the run can continue.
 */

#ifndef MINOS_COMMON_LOGGING_HH
#define MINOS_COMMON_LOGGING_HH

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <utility>

namespace minos {

namespace detail {

/** Stream-concatenate all arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg);

} // namespace detail

} // namespace minos

/** Unrecoverable internal error: print and abort. */
#define MINOS_PANIC(...) \
    ::minos::detail::panicImpl(__FILE__, __LINE__, \
                               ::minos::detail::concat(__VA_ARGS__))

/** Unrecoverable user error: print and exit(1). */
#define MINOS_FATAL(...) \
    ::minos::detail::fatalImpl(__FILE__, __LINE__, \
                               ::minos::detail::concat(__VA_ARGS__))

/** Non-fatal warning. */
#define MINOS_WARN(...) \
    ::minos::detail::warnImpl(::minos::detail::concat(__VA_ARGS__))

/** Panic unless the given internal invariant holds. */
#define MINOS_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            MINOS_PANIC("assertion '", #cond, "' failed: ", \
                        ::minos::detail::concat(__VA_ARGS__)); \
        } \
    } while (0)

#endif // MINOS_COMMON_LOGGING_HH
