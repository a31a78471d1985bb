/**
 * @file
 * Shared output and configuration helpers for the figure/table benches.
 *
 * Mirrors the paper artifact's reporting: every bench prints an
 * aligned human-readable table to stdout and the same rows as
 * tab-separated values (the artifact's out_*.txt format) beneath it.
 */
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>

#include "common/status.hpp"
#include "common/table.hpp"
#include "harness/experiments.hpp"

namespace gpm::bench {

/** Print the bench banner, the aligned table, then the TSV block. */
inline void
report(const std::string &title, const Table &table)
{
    std::cout << "=== " << title << " ===\n\n";
    table.print(std::cout);
    std::cout << "\n--- TSV ---\n";
    table.printTsv(std::cout);
    std::cout << std::endl;
}

/**
 * benchConfig() for a driver's main(): a malformed GPM_MEDIA prints
 * its message and exits 2, the tools' usage-error code, instead of
 * escaping main as an uncaught FatalError.
 */
inline SimConfig
driverConfig(const char *driver)
{
    try {
        return benchConfig();
    } catch (const FatalError &e) {
        std::cerr << driver << ": " << e.what() << "\n";
        std::exit(2);
    }
}

} // namespace gpm::bench
