#include "crashtest/crash_scheduler.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string_view>

#include "common/env.hpp"
#include "common/status.hpp"

namespace gpm {

std::string
CrashSpec::label() const
{
    char buf[48];
    switch (kind) {
      case Kind::Fraction:
        std::snprintf(buf, sizeof buf, "frac:%.2f", fraction);
        break;
      case Kind::BeforeFence:
        std::snprintf(buf, sizeof buf, "before-fence:%llu",
                      static_cast<unsigned long long>(count));
        break;
      case Kind::AfterFence:
        std::snprintf(buf, sizeof buf, "after-fence:%llu",
                      static_cast<unsigned long long>(count));
        break;
      case Kind::AfterStore:
        std::snprintf(buf, sizeof buf, "after-store:%llu",
                      static_cast<unsigned long long>(count));
        break;
    }
    return buf;
}

CrashPoint
CrashSpec::materialize(std::uint64_t total_thread_phases) const
{
    switch (kind) {
      case Kind::BeforeFence:
        return CrashPoint::beforeFence(count);
      case Kind::AfterFence:
        return CrashPoint::afterFence(count);
      case Kind::AfterStore:
        return CrashPoint::afterPmStore(count);
      case Kind::Fraction:
        break;
    }
    const double f = std::clamp(fraction, 0.0, 1.0);
    return CrashPoint::afterThreadPhases(static_cast<std::uint64_t>(
        f * static_cast<double>(total_thread_phases)));
}

CrashGrid
CrashGrid::defaults()
{
    CrashGrid g;
    g.fractions = {0.1, 0.5, 0.9};
    g.fence_counts = {1, 2};
    g.store_counts = {3};
    return g;
}

CrashGrid
CrashGrid::fine()
{
    CrashGrid g;
    // 0.05 steps, computed as n/20 so the labels ("frac:0.35") round
    // exactly and the grid is reproducible from its printed form.
    for (int n = 1; n <= 19; ++n)
        g.fractions.push_back(static_cast<double>(n) / 20.0);
    g.fence_counts = {1, 2, 3};
    g.store_counts = {1, 2, 3, 5, 8};
    return g;
}

std::vector<CrashSpec>
CrashScheduler::enumerate(const CrashGrid &grid)
{
    std::vector<CrashSpec> specs;
    for (const double f : grid.fractions)
        specs.push_back({CrashSpec::Kind::Fraction, f, 0});
    for (const std::uint64_t n : grid.fence_counts) {
        specs.push_back({CrashSpec::Kind::BeforeFence, 0.0, n});
        specs.push_back({CrashSpec::Kind::AfterFence, 0.0, n});
    }
    for (const std::uint64_t n : grid.store_counts)
        specs.push_back({CrashSpec::Kind::AfterStore, 0.0, n});
    return specs;
}

CrashSpec
CrashScheduler::parse(const std::string &token)
{
    constexpr const char *kGrammar =
        "frac:<f in [0,1]> | before-fence:<n> | after-fence:<n> | "
        "after-store:<n>, n >= 1";
    const std::size_t colon = std::min(token.find(':'), token.size());
    const std::string head = token.substr(0, colon);
    const std::string_view val =
        std::string_view(token).substr(std::min(colon + 1, token.size()));

    CrashSpec s;
    if (head == "frac") {
        s.kind = CrashSpec::Kind::Fraction;
        const std::optional<double> f = parseDecimal(val);
        if (!f || *f > 1.0)
            fatal("crash spec '", token, "': want ", kGrammar);
        s.fraction = *f;
        return s;
    }
    if (head == "before-fence")
        s.kind = CrashSpec::Kind::BeforeFence;
    else if (head == "after-fence")
        s.kind = CrashSpec::Kind::AfterFence;
    else if (head == "after-store")
        s.kind = CrashSpec::Kind::AfterStore;
    else
        fatal("crash spec '", token, "': want ", kGrammar);
    const std::optional<std::uint64_t> n = parseU64(val);
    if (!n || *n == 0)
        fatal("crash spec '", token, "': want ", kGrammar);
    s.count = *n;
    return s;
}

std::vector<CrashSpec>
CrashScheduler::parseList(const std::string &tokens)
{
    std::vector<CrashSpec> specs;
    std::size_t pos = 0;
    while (pos <= tokens.size()) {
        std::size_t comma = tokens.find(',', pos);
        if (comma == std::string::npos)
            comma = tokens.size();
        if (comma > pos)
            specs.push_back(parse(tokens.substr(pos, comma - pos)));
        pos = comma + 1;
    }
    GPM_REQUIRE(!specs.empty(), "empty crash-spec list");
    return specs;
}

} // namespace gpm
