#include "common/env.hpp"

#include <charconv>
#include <cstdlib>
#include <limits>

#include "common/status.hpp"

namespace gpm {

std::optional<std::uint64_t>
parseU64(std::string_view s)
{
    if (s.empty())
        return std::nullopt;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return std::nullopt;  // rejects sign, space, trailing junk
        const auto d = static_cast<std::uint64_t>(c - '0');
        if (v > (kMax - d) / 10)
            return std::nullopt;  // would overflow, never saturate
        v = v * 10 + d;
    }
    return v;
}

std::optional<int>
parseExecWorkers(std::string_view s)
{
    const std::optional<std::uint64_t> v = parseU64(s);
    if (!v || *v > std::uint64_t(kMaxExecWorkers))
        return std::nullopt;
    return static_cast<int>(*v);
}

std::optional<int>
parseExecWorkers(const char *s)
{
    if (s == nullptr)
        return std::nullopt;
    return parseExecWorkers(std::string_view(s));
}

std::optional<double>
parseDecimal(std::string_view s)
{
    const auto digits = [](std::string_view d) {
        return !d.empty() &&
               d.find_first_not_of("0123456789") == std::string_view::npos;
    };
    const std::size_t dot = s.find('.');
    if (!digits(s.substr(0, dot)) ||
        (dot != std::string_view::npos && !digits(s.substr(dot + 1))))
        return std::nullopt;
    double v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(),
                                           v, std::chars_format::fixed);
    if (ec != std::errc{} || end != s.data() + s.size())
        return std::nullopt;
    return v;
}

std::uint64_t
requireU64(std::string_view flag, std::string_view v)
{
    const std::optional<std::uint64_t> r = parseU64(v);
    if (!r)
        fatal(flag, ": want a decimal integer in [0, 2^64), got '", v,
              "'");
    return *r;
}

int
requireExecWorkers(std::string_view flag, std::string_view v)
{
    const std::optional<int> r = parseExecWorkers(v);
    if (!r)
        fatal(flag, ": want an integer in [0, ", kMaxExecWorkers,
              "], got '", v, "'");
    return *r;
}

double
requireDecimal(std::string_view flag, std::string_view v)
{
    const std::optional<double> r = parseDecimal(v);
    if (!r)
        fatal(flag, ": want a decimal number like 0.5, got '", v, "'");
    return *r;
}

int
execWorkersFromEnv(int fallback)
{
    return parseExecWorkers(std::getenv("GPM_EXEC_WORKERS"))
        .value_or(fallback);
}

} // namespace gpm
