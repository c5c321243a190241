#include "flags.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace minos {

Flags::Flags(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    bool flags_done = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (flags_done || arg.rfind("--", 0) != 0) {
            positional_.push_back(std::move(arg));
            continue;
        }
        if (arg == "--") {
            flags_done = true;
            continue;
        }
        std::string body = arg.substr(2);
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            values_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // `--name value` unless the next token is another flag.
        if (i + 1 < argc) {
            std::string next = argv[i + 1];
            if (next.rfind("--", 0) != 0) {
                values_[body] = next;
                ++i;
                continue;
            }
        }
        values_[body] = ""; // bare boolean switch
    }
}

bool
Flags::has(const std::string &name) const
{
    return values_.count(name) > 0;
}

std::string
Flags::getString(const std::string &name, const std::string &dflt) const
{
    auto it = values_.find(name);
    return it == values_.end() ? dflt : it->second;
}

std::string
Flags::getNonEmpty(const std::string &name) const
{
    const std::string v = getString(name);
    if (has(name) && v.empty())
        badFlag("--" + name + " expects a value");
    return v;
}

std::vector<std::string>
Flags::getStrings(const std::string &name, char sep) const
{
    std::vector<std::string> out;
    auto it = values_.find(name);
    if (it == values_.end())
        return out;
    const std::string &v = it->second;
    std::size_t start = 0;
    while (start <= v.size()) {
        std::size_t end = v.find(sep, start);
        if (end == std::string::npos)
            end = v.size();
        if (end > start)
            out.push_back(v.substr(start, end - start));
        start = end + 1;
    }
    if (out.empty())
        badFlag("--" + name + " expects a value");
    return out;
}

std::int64_t
Flags::getInt(const std::string &name, std::int64_t dflt, std::int64_t lo,
              std::int64_t hi) const
{
    return has(name) ? parseInt(name, getString(name), lo, hi) : dflt;
}

double
Flags::getDouble(const std::string &name, double dflt, double lo,
                 double hi) const
{
    if (!has(name))
        return dflt;
    const std::string text = getString(name);
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    // Written so that NaN fails the range test too.
    if (text.empty() || *end != '\0' || !(v >= lo && v <= hi)) {
        std::ostringstream msg;
        msg << "--" << name << " expects a number in [" << lo << ", " << hi
            << "], got '" << text << "'";
        badFlag(msg.str());
    }
    return v;
}

std::int64_t
Flags::parseInt(const std::string &flag, const std::string &text,
                std::int64_t lo, std::int64_t hi) const
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno == ERANGE || v < lo ||
        v > hi)
        badFlag("--" + flag + " expects an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) +
                "], got '" + text + "'");
    return v;
}

void
Flags::badFlag(const std::string &msg) const
{
    const std::string tool = program_.substr(program_.rfind('/') + 1);
    std::fprintf(stderr, "%s: %s\n", tool.c_str(), msg.c_str());
    std::exit(2);
}

bool
Flags::getBool(const std::string &name, bool dflt) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return dflt;
    const std::string &v = it->second;
    if (v.empty() || v == "1" || v == "true" || v == "yes")
        return true;
    if (v == "0" || v == "false" || v == "no")
        return false;
    badFlag("--" + name + " expects no value, 1/true/yes or 0/false/no, " +
            "got '" + v + "'");
}

std::vector<std::string>
Flags::unknownFlags(const std::vector<std::string> &known) const
{
    std::vector<std::string> unknown;
    for (const auto &[name, value] : values_) {
        bool found = false;
        for (const auto &k : known)
            found |= (k == name);
        if (!found)
            unknown.push_back(name);
    }
    return unknown;
}

} // namespace minos
