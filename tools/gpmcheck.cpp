/**
 * @file
 * gpmcheck — the persistency-ordering analyzer CLI.
 *
 * Runs every workload x persist-domain cell once, clean, under an
 * attached event recorder, then proves (or refutes) the declared
 * persist-ordering rules over the captured trace — no crash-point
 * enumeration. Findings can be confirmed dynamically: each carries a
 * minimal CrashSpec witness that --witness replays through the
 * torture machinery.
 *
 *     gpmcheck [flags]
 *
 *     --workloads kvs,db-insert,...   default: all registered
 *     --domains   llc-volatile,mc-durable,llc-durable
 *     --severity  info|warn|error     report + exit floor (default warn)
 *     --witness                       replay finding witnesses
 *     --corpus                        sweep the seeded-bug corpus
 *                                     instead of the real workloads
 *     --jobs      N                   sweep workers (0 = hw threads;
 *                                     default GPM_EXEC_WORKERS, else 1)
 *     --seed      N                   trace-capture seed (default 1)
 *     --tsv                           tab-separated findings table
 *     --summary-only                  omit the findings table
 *     --list                         print workloads + rule catalog
 *
 * Exit status (tools/cli.hpp): 0 = no findings at/above the severity
 * floor, 1 = findings (or a cell error), 2 = usage error.
 *
 * The cells sweep through the harness engine into canonical slots, so
 * the findings, summary, and signature are bit-identical at any
 * --jobs.
 */
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/check_runner.hpp"
#include "cli.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "persistency_bugs/corpus.hpp"

using namespace gpm;

namespace {

constexpr const char *kUsage =
    "usage: gpmcheck [--workloads w,...] [--domains d,...]\n"
    "                [--severity info|warn|error] [--witness]\n"
    "                [--corpus] [--jobs n] [--seed n] [--tsv]\n"
    "                [--summary-only] [--list]\n";

void
list()
{
    std::printf("workloads:");
    for (const std::string &w : registeredInvariants())
        std::printf(" %s", w.c_str());
    std::printf("\ncorpus:");
    for (const std::string &w : registeredBugs())
        std::printf(" %s", w.c_str());
    std::printf("\ndomains: llc-volatile mc-durable llc-durable\n");
    std::printf(
        "rules:\n"
        "  unpersisted-store  stores in a declared range that never\n"
        "                     became durable\n"
        "  epoch-order        a declared persist-order rule violated\n"
        "                     (out-of-order, same-epoch seal, or\n"
        "                     commit-before-data)\n"
        "  torn-update        one atomic cell persisting across epochs\n"
        "  redundant-fence    fences that drained nothing (perf lint)\n"
        "  redundant-flush    flushes that drained nothing (perf lint)\n"
        "  crash-unreachable  declared ranges no armed launch stores\n"
        "                     to (dead torture coverage)\n"
        "witness grammar: frac:<f> before-fence:<n> after-fence:<n> "
        "after-store:<n>\n");
}

int
runChecks(cli::Args &a)
{
    CheckConfig cfg;
    cfg.workloads = a.list("--workloads");
    cfg.domains = a.domains();
    const Severity floor = parseSeverity(
        a.value("--severity").value_or("warn"));
    cfg.confirm_witnesses = a.has("--witness");
    const bool corpus = a.has("--corpus");
    cfg.jobs = a.jobs(execWorkersFromEnv(cfg.jobs));
    cfg.seed = a.u64("--seed", cfg.seed);
    const bool tsv = a.has("--tsv");
    const bool summary_only = a.has("--summary-only");
    const bool list_only = a.has("--list");
    if (corpus) {
        cfg.factory = makeBugInvariant;
        if (cfg.workloads.empty())
            cfg.workloads = registeredBugs();
    }
    cfg.confirm_floor = floor;
    // Unknown names fail here, naming the valid set.
    for (const std::string &w : cfg.workloads)
        (corpus ? makeBugInvariant : makeInvariant)(w);
    a.done();
    if (list_only) {
        list();
        return 0;
    }

    CheckConfig counted = cfg;
    counted.applyDefaults();
    std::printf("analyzing %zu workload x domain cells "
                "(--jobs %d%s)...\n",
                counted.workloads.size() * counted.domains.size(),
                cfg.jobs,
                cfg.confirm_witnesses ? ", witness replay on" : "");

    const auto t0 = std::chrono::steady_clock::now();
    const CheckReport report = runCheck(cfg);
    const double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    if (!summary_only) {
        Table t = report.table(floor);
        if (t.rows() != 0) {
            if (tsv)
                t.printTsv(std::cout);
            else
                t.print(std::cout);
            std::printf("\n");
        }
    }
    report.summary().print(std::cout);

    std::size_t errors = 0;
    for (const CheckCell &c : report.cells)
        if (!c.error.empty())
            ++errors;
    const std::size_t flagged = report.findingsAtLeast(floor);
    std::printf("\ncells: %zu  findings>=%s: %zu  confirmed: %zu"
                "  cell-errors: %zu\n",
                report.cells.size(), severityName(floor), flagged,
                report.confirmed(), errors);
    std::printf("signature: %016llx\n",
                static_cast<unsigned long long>(
                    report.signature()));
    std::printf("check wall: %.3f s  (%zu cells, --jobs %d)\n",
                wall_s, report.cells.size(), cfg.jobs);

    for (const CheckCell &c : report.cells)
        if (!c.error.empty())
            std::printf("CELL ERROR %s: %s\n",
                        c.scenario.key().c_str(), c.error.c_str());
    return (flagged != 0 || errors != 0) ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gpmcheck", kUsage, argc, argv, runChecks);
}
