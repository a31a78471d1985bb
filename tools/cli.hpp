/**
 * @file
 * The argument layer of the five tools (gpmbench, gpmtorture,
 * gpmcheck, gpmserve, gpmtrace): one grammar, one set of key parsers
 * and one exit-code policy.
 *
 * Grammar. A word that starts with "--" is a flag. A flag takes a
 * value only when the tool asks for one, and the value is the next
 * word, which must not itself start with "--" ("-1" is a value, and
 * is then rejected by the strict number parsers of common/env.hpp).
 * A flag may be given once. Every other word is a positional, read
 * in order after the flags. Flags and positionals may be mixed.
 *
 * Exit policy (cli::run):
 *
 *   0  success;
 *   1  the run ran and failed: a violation, a finding, a verify
 *      failure, or an exception thrown after parsing;
 *   2  usage error: an unknown flag, a missing, repeated or malformed
 *      value, an unknown key, an extra or missing positional, or a
 *      malformed GPM_MEDIA. All of them are detected before
 *      Args::done(), which is where the run starts.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "crashtest/crash_scheduler.hpp"
#include "crashtest/recovery_invariant.hpp"
#include "harness/experiments.hpp"
#include "memsim/media_backend.hpp"

namespace gpm::cli {

/** One tool's argv, consumed by lookups; see the file comment. */
class Args
{
  public:
    Args(int argc, char **argv);

    /**
     * Whether switch @p flag is present. With @p opt_value, the next
     * word is taken as the switch's optional value unless it starts
     * with '-'.
     */
    bool has(std::string_view flag,
             std::optional<std::string> *opt_value = nullptr);

    /** The value after @p flag, or nullopt when the flag is absent. */
    std::optional<std::string> value(std::string_view flag);

    /** The comma list after @p flag; empty when the flag is absent. */
    std::vector<std::string> list(std::string_view flag);

    /** Strict u64 after @p flag, else @p def. */
    std::uint64_t u64(std::string_view flag, std::uint64_t def);

    /** --jobs as a worker count in [0, kMaxExecWorkers], else @p def. */
    int jobs(int def);

    /** --media as a backend key, if given. */
    std::optional<MediaConfig> media();

    /** --domains as persist domains; empty when absent. */
    std::vector<PersistDomain> domains();

    /** --points as crash-point specs; empty when absent. */
    std::vector<CrashSpec> points();

    /** The next positional, or nullopt. Call after every flag lookup. */
    std::optional<std::string> positional();

    /** The next positional, a usage error naming @p what if missing. */
    std::string positional(std::string_view what);

    /**
     * End of parsing: any word no lookup consumed is a usage error.
     * Exceptions after this call are run failures (exit 1).
     */
    void done();

    bool parsed() const { return done_; }

  private:
    /** Index of @p flag's one occurrence, if present. */
    std::optional<std::size_t> find(std::string_view flag);

    std::vector<std::string> words_;
    std::vector<bool> used_;
    bool positionals_started_ = false;
    bool done_ = false;
};

/** Workload for key @p key; the error names every valid key. */
bench::Bench workload(std::string_view key);

/** Platform for key @p key; the error names every valid key. */
PlatformKind platform(std::string_view key);

/** Print the workload keys with their names and classes. */
void printBenchKeys();

/**
 * Run @p body under the exit policy above: parse with the Args it
 * is given, call Args::done(), then run and return 0 or 1. Errors
 * print as "<tool>: <message>"; usage errors add @p usage.
 */
int run(const char *tool, const char *usage, int argc, char **argv,
        const std::function<int(Args &)> &body);

} // namespace gpm::cli
