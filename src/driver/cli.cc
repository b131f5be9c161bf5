#include "cli.hh"

#include <charconv>
#include <system_error>
#include <type_traits>

#include "sim/logging.hh"

namespace tss
{

namespace
{

/**
 * Parse the whole of @p text as a T, or fatal() naming the flag: no
 * trailing characters, nothing outside T's range.
 */
template <typename T>
T
parseNumber(const std::string &key, const std::string &text)
{
    T value{};
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, value);
    bool negative = !text.empty() && text[0] == '-';
    if (ec == std::errc::result_out_of_range ||
        (std::is_unsigned_v<T> && negative))
        fatal("--%s: '%s' is out of range", key.c_str(), text.c_str());
    if (ec != std::errc() || ptr != end)
        fatal("--%s: '%s' is not a number", key.c_str(), text.c_str());
    return value;
}

} // namespace

CliArgs::CliArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            fatal("unexpected positional argument '%s'", arg.c_str());
        }
        arg = arg.substr(2);
        auto eq_pos = arg.find('=');
        if (eq_pos == std::string::npos)
            values[arg] = "1";
        else
            values[arg.substr(0, eq_pos)] = arg.substr(eq_pos + 1);
    }
}

bool
CliArgs::has(const std::string &flag) const
{
    return values.count(flag) > 0;
}

std::string
CliArgs::get(const std::string &key, const std::string &fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
}

double
CliArgs::getDouble(const std::string &key, double fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback
                              : parseNumber<double>(key, it->second);
}

long
CliArgs::getLong(const std::string &key, long fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback : parseNumber<long>(key, it->second);
}

unsigned
CliArgs::getUnsigned(const std::string &key, unsigned fallback) const
{
    auto it = values.find(key);
    return it == values.end() ? fallback
                              : parseNumber<unsigned>(key, it->second);
}

double
CliArgs::scale(double quick, double full, double fallback) const
{
    if (has("scale"))
        return getDouble("scale", fallback);
    if (has("quick"))
        return quick;
    if (has("full"))
        return full;
    return fallback;
}

} // namespace tss
