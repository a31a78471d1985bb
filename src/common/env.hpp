/**
 * @file
 * Strict parsing of numeric command-line values and of the
 * GPM_EXEC_WORKERS sweep-width variable.
 *
 * Every numeric flag and positional seed of the tools funnels through
 * these parsers, so the accepted grammar is defined exactly once:
 * plain decimal digits — no sign, no space, no trailing junk, no empty
 * string, no overflow. Malformed input is an error, never a silently
 * different run (`abc` is not seed 0, `-1` is not 2^64-1).
 *
 * A worker count is such a value in [0, 1024]; 0 means one worker
 * per hardware thread. GPM_EXEC_WORKERS supplies the default sweep
 * width of gpmtorture, gpmcheck, `gpmbench matrix` and the figure
 * drivers.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace gpm {

/** Upper bound on an explicit worker count. */
constexpr int kMaxExecWorkers = 1024;

/**
 * Strictly parse a decimal unsigned 64-bit value.
 *
 * @return The value for a non-empty run of decimal digits that fits in
 *         64 bits; std::nullopt otherwise.
 */
std::optional<std::uint64_t> parseU64(std::string_view s);

/**
 * Strictly parse a worker count: parseU64 restricted to
 * [0, kMaxExecWorkers].
 */
std::optional<int> parseExecWorkers(std::string_view s);

/** Null-tolerant overload (null parses as malformed). */
std::optional<int> parseExecWorkers(const char *s);

/**
 * Strictly parse a plain decimal fraction: digits, optionally
 * followed by '.' and more digits (`0.5`, `1`, `0.125`). No sign,
 * exponent, hex, `inf` or `nan`.
 */
std::optional<double> parseDecimal(std::string_view s);

/**
 * Flag-parsing forms of the parsers above: the value, or fatal()
 * naming @p flag, the accepted grammar and the rejected text.
 */
std::uint64_t requireU64(std::string_view flag, std::string_view v);
int requireExecWorkers(std::string_view flag, std::string_view v);
double requireDecimal(std::string_view flag, std::string_view v);

/**
 * Sweep width from the GPM_EXEC_WORKERS environment variable.
 *
 * @return The parsed value, or @p fallback when the variable is unset
 *         or rejected by parseExecWorkers (invalid input degrades to
 *         the one-worker sweep rather than erroring, so a stray
 *         environment never breaks a bench run).
 */
int execWorkersFromEnv(int fallback = 1);

} // namespace gpm
