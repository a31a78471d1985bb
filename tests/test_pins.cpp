/**
 * @file
 * Signature pins for the default grids, run through the library entry
 * points at sweep width 0 (one worker per hardware thread). Each value
 * is the signature the matching tool prints for its default grid, so
 * any drift in simulated behavior fails the tier-1 suite, not only CI:
 *
 *  - torture       `gpmtorture`                        9ee61627f2412d97
 *  - serve adapter `gpmtorture --workloads serve`      51e4385dd62be355
 *  - pmheap        `gpmtorture --workloads pmheap`     4e1bb7cc16af2cc3
 *  - clean grid    `gpmcheck`                          aaf36cf0ed1c7225
 *  - heap cells    `gpmcheck --workloads pmheap`       aa6968c1f4d62f2e
 *
 * The corpus pin lives in test_persistency_bugs; the scale-grid pins
 * (10800 and 2160 scenarios) stay in CI.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/check_runner.hpp"
#include "crashtest/torture_runner.hpp"

namespace gpm {
namespace {

TortureReport
torture(const std::vector<std::string> &workloads)
{
    TortureConfig cfg;
    cfg.workloads = workloads;
    cfg.jobs = 0;
    return TortureRunner::run(cfg);
}

CheckReport
check(const std::vector<std::string> &workloads)
{
    CheckConfig cfg;
    cfg.workloads = workloads;
    cfg.jobs = 0;
    return runCheck(cfg);
}

TEST(Pins, DefaultGridSignatures)
{
    const TortureReport grid = torture({});
    EXPECT_EQ(grid.results.size(), 1200u);
    EXPECT_EQ(grid.violations(), 0u);
    EXPECT_EQ(grid.signature(), 0x9ee61627f2412d97ull);

    const TortureReport serve = torture({"serve"});
    EXPECT_EQ(serve.violations(), 0u);
    EXPECT_EQ(serve.signature(), 0x51e4385dd62be355ull);

    const TortureReport heap = torture({"pmheap"});
    EXPECT_EQ(heap.results.size(), 240u);
    EXPECT_EQ(heap.violations(), 0u);
    EXPECT_EQ(heap.signature(), 0x4e1bb7cc16af2cc3ull);

    const CheckReport clean = check({});
    EXPECT_EQ(clean.findingsAtLeast(Severity::Warn), 0u);
    EXPECT_EQ(clean.signature(), 0xaaf36cf0ed1c7225ull);

    const CheckReport heap_cells = check({"pmheap"});
    EXPECT_EQ(heap_cells.findingsAtLeast(Severity::Warn), 0u);
    EXPECT_EQ(heap_cells.signature(), 0xaa6968c1f4d62f2eull);
}

} // namespace
} // namespace gpm
