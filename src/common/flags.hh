/**
 * @file
 * Minimal command-line flag parsing for the tools and harnesses.
 *
 * Supports `--name=value`, `--name value`, and bare boolean `--name`
 * switches, plus positional arguments. Unknown-flag detection lets
 * tools fail fast on typos, and the range-checked getters let them
 * reject a bad value with exit status 2, the tools' "bad flag" status.
 */

#ifndef MINOS_COMMON_FLAGS_HH
#define MINOS_COMMON_FLAGS_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace minos {

/** Parsed command line. */
class Flags
{
  public:
    /**
     * Parse @p argv. Flags start with `--`; everything else is
     * positional. `--` alone ends flag parsing.
     */
    Flags(int argc, const char *const *argv);

    /** True if the flag was given (with or without a value). */
    bool has(const std::string &name) const;

    /** String value, or @p dflt when absent. */
    std::string getString(const std::string &name,
                          const std::string &dflt = "") const;

    /**
     * Value of a flag that must name something when given (a path, a
     * mutant): empty when absent; given with no value (bare, as
     * `--name=`, or followed by another flag), a badFlag().
     */
    std::string getNonEmpty(const std::string &name) const;

    /**
     * Value split on @p sep (default comma), empty pieces dropped:
     * `--trace-categories=lock,fifo` -> {"lock","fifo"}. Empty when the
     * flag is absent; given with no piece (`--name`, `--name=`,
     * `--name=,`), a badFlag().
     */
    std::vector<std::string> getStrings(const std::string &name,
                                        char sep = ',') const;

    /**
     * Integer value in [@p lo, @p hi], or @p dflt when absent; any other
     * value is a badFlag().
     */
    std::int64_t
    getInt(const std::string &name, std::int64_t dflt = 0,
           std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
           std::int64_t hi = std::numeric_limits<std::int64_t>::max()) const;

    /**
     * Number in [@p lo, @p hi], or @p dflt when absent; any other value
     * is a badFlag().
     */
    double getDouble(const std::string &name, double dflt = 0.0,
                     double lo = -HUGE_VAL, double hi = HUGE_VAL) const;

    /**
     * @p text, a piece of the value of --@p flag, as an integer in
     * [@p lo, @p hi]; any other text is a badFlag().
     */
    std::int64_t parseInt(const std::string &flag, const std::string &text,
                          std::int64_t lo, std::int64_t hi) const;

    /** Print "<program>: @p msg" on stderr and exit 2. */
    [[noreturn]] void badFlag(const std::string &msg) const;

    /**
     * Boolean: true when the flag appears with no value or with
     * "1"/"true"/"yes"; false for "0"/"false"/"no"; @p dflt when absent.
     * Any other value is a badFlag(), so `--csv out` (which gives --csv
     * the value "out") is refused rather than read as off.
     */
    bool getBool(const std::string &name, bool dflt = false) const;

    /** Positional arguments in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Program name (argv[0]). */
    const std::string &program() const { return program_; }

    /**
     * Flags given on the command line that are not in @p known —
     * use to reject typos.
     */
    std::vector<std::string>
    unknownFlags(const std::vector<std::string> &known) const;

  private:
    std::string program_;
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace minos

#endif // MINOS_COMMON_FLAGS_HH
