#include "cli.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>

#include "common/env.hpp"
#include "common/status.hpp"

namespace gpm::cli {

namespace {

bool
isFlag(const std::string &word)
{
    return word.rfind("--", 0) == 0;
}

} // namespace

Args::Args(int argc, char **argv)
    : words_(argv + 1, argv + argc), used_(words_.size(), false)
{
}

std::optional<std::size_t>
Args::find(std::string_view flag)
{
    GPM_ASSERT(!positionals_started_, "flag ", flag,
               " looked up after a positional");
    std::optional<std::size_t> at;
    for (std::size_t i = 0; i < words_.size(); ++i) {
        if (used_[i] || words_[i] != flag)
            continue;
        if (at)
            fatal(flag, " given twice");
        at = i;
    }
    if (at)
        used_[*at] = true;
    return at;
}

bool
Args::has(std::string_view flag, std::optional<std::string> *opt_value)
{
    const std::optional<std::size_t> i = find(flag);
    if (!i)
        return false;
    const std::size_t v = *i + 1;
    if (opt_value && v < words_.size() && !used_[v] &&
        words_[v].rfind('-', 0) != 0) {
        used_[v] = true;
        *opt_value = words_[v];
    }
    return true;
}

std::optional<std::string>
Args::value(std::string_view flag)
{
    const std::optional<std::size_t> i = find(flag);
    if (!i)
        return std::nullopt;
    const std::size_t v = *i + 1;
    if (v >= words_.size() || isFlag(words_[v]))
        fatal(flag, " needs a value");
    used_[v] = true;
    return words_[v];
}

std::vector<std::string>
Args::list(std::string_view flag)
{
    const std::optional<std::string> v = value(flag);
    std::vector<std::string> out;
    if (!v)
        return out;
    // An empty item would silently drop out of the list, and an empty
    // list would fall back to the flag's default axis (for --seeds, the
    // full 1200-scenario sweep): both are errors.
    std::size_t pos = 0;
    while (true) {
        const std::size_t comma = std::min(v->find(',', pos), v->size());
        if (comma == pos)
            fatal(flag, ": empty item in list '", *v, "'");
        out.push_back(v->substr(pos, comma - pos));
        if (comma == v->size())
            return out;
        pos = comma + 1;
    }
}

std::uint64_t
Args::u64(std::string_view flag, std::uint64_t def)
{
    const std::optional<std::string> v = value(flag);
    return v ? requireU64(flag, *v) : def;
}

int
Args::jobs(int def)
{
    const std::optional<std::string> v = value("--jobs");
    return v ? requireExecWorkers("--jobs", *v) : def;
}

std::optional<MediaConfig>
Args::media()
{
    const std::optional<std::string> v = value("--media");
    if (!v)
        return std::nullopt;
    const std::optional<MediaConfig> m = parseMediaConfig(*v);
    if (!m)
        fatal("unknown media backend '", *v, "' (valid: ", mediaUsage(),
              ")");
    return m;
}

std::vector<PersistDomain>
Args::domains()
{
    std::vector<PersistDomain> out;
    for (const std::string &d : list("--domains"))
        out.push_back(parsePersistDomain(d));
    return out;
}

std::vector<CrashSpec>
Args::points()
{
    std::vector<CrashSpec> out;
    for (const std::string &p : list("--points"))
        out.push_back(CrashScheduler::parse(p));
    return out;
}

std::optional<std::string>
Args::positional()
{
    positionals_started_ = true;
    for (std::size_t i = 0; i < words_.size(); ++i) {
        if (used_[i])
            continue;
        if (isFlag(words_[i]))
            fatal("unknown flag '", words_[i], "'");
        used_[i] = true;
        return words_[i];
    }
    return std::nullopt;
}

std::string
Args::positional(std::string_view what)
{
    const std::optional<std::string> p = positional();
    if (!p)
        fatal("missing <", what, ">");
    return *p;
}

void
Args::done()
{
    for (std::size_t i = 0; i < words_.size(); ++i) {
        if (used_[i])
            continue;
        if (words_[i].rfind('-', 0) == 0)
            fatal("unknown flag '", words_[i], "'");
        fatal("unexpected argument '", words_[i], "'");
    }
    done_ = true;
}

bench::Bench
workload(std::string_view key)
{
    if (const std::optional<bench::Bench> b = bench::benchFromKey(key))
        return *b;
    std::string valid;
    for (const bench::BenchKey &k : bench::benchKeys())
        valid.append(valid.empty() ? "" : " ").append(k.key);
    fatal("unknown workload '", key, "' (valid: ", valid, ")");
}

PlatformKind
platform(std::string_view key)
{
    if (const std::optional<PlatformKind> p = bench::platformFromKey(key))
        return *p;
    std::string valid;
    for (const bench::PlatformKey &k : bench::platformKeys())
        valid.append(valid.empty() ? "" : " ").append(k.key);
    fatal("unknown platform '", key, "' (valid: ", valid, ")");
}

void
printBenchKeys()
{
    for (const bench::BenchKey &k : bench::benchKeys())
        std::printf("%-7s %-14s %s\n", k.key,
                    bench::benchName(k.bench).c_str(),
                    bench::benchClass(k.bench).c_str());
}

int
run(const char *tool, const char *usage, int argc, char **argv,
    const std::function<int(Args &)> &body)
{
    Args args(argc, argv);
    try {
        const int rc = body(args);
        GPM_ASSERT(args.parsed(), tool, " returned before Args::done()");
        return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", tool, e.what());
        if (args.parsed())
            return 1;
        std::fputs(usage, stderr);
        return 2;
    }
}

} // namespace gpm::cli
