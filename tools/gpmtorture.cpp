/**
 * @file
 * gpmtorture — the crash-matrix torture CLI.
 *
 * Sweeps recovery invariants across crash points x eviction seeds x
 * persist domains and prints the scenario x outcome table, the per
 * workload x domain summary, and the determinism signature. Exits
 * nonzero when any scenario is classified as a violation.
 *
 *     gpmtorture [flags]
 *
 *     --workloads kvs,db-insert,...   default: all registered
 *     --domains   llc-volatile,mc-durable,llc-durable
 *     --points    frac:0.5,before-fence:1,after-fence:2,after-store:3
 *     --seeds     1,2,3               eviction seeds
 *     --survive   0.0,0.5             line-survival probabilities
 *     --jobs      N                   sweep workers (0 = hw threads;
 *                                     default GPM_EXEC_WORKERS, else 1)
 *     --media     M                   PM media backend (default nvm)
 *     --scale                         CrashGrid::fine() + 12 seeds:
 *                                     the 10k+ scenario grid
 *     --tsv                           tab-separated full table
 *     --summary-only                  omit the full table
 *     --list                          print workloads + grammar
 *
 * Every scenario is a private Machine + PmPool world and the sweep
 * engine lands results in canonical slots, so the report — table
 * order, counts, signature — is bit-identical at any --jobs; only the
 * printed sweep wall-clock changes.
 *
 * Crash-point grammar: frac:<f in [0,1]> | before-fence:<n> |
 * after-fence:<n> | after-store:<n> (event ordinals are 1-based and
 * global to the doomed kernel launch). Arguments and exit codes
 * follow tools/cli.hpp; a VIOLATION exits 1.
 */
#include <array>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "crashtest/torture_runner.hpp"

using namespace gpm;

namespace {

constexpr const char *kUsage =
    "usage: gpmtorture [--workloads w,...] [--domains d,...]\n"
    "                  [--points p,...] [--seeds s,...]\n"
    "                  [--survive f,...] [--jobs n] [--media m]\n"
    "                  [--scale] [--tsv] [--summary-only] [--list]\n";

void
list()
{
    std::printf("workloads:");
    for (const std::string &w : registeredInvariants())
        std::printf(" %s", w.c_str());
    std::printf("\nextended workloads (opt-in via --workloads):");
    for (const std::string &w : extendedInvariants())
        std::printf(" %s", w.c_str());
    std::printf("\n");
    std::printf("domains: llc-volatile mc-durable llc-durable\n");
    std::printf("media backends: %s\n", mediaUsage());
    std::printf("crash points: frac:<f> before-fence:<n> "
                "after-fence:<n> after-store:<n>\n");
    std::printf("default grid:");
    for (const CrashSpec &s :
         CrashScheduler::enumerate(CrashGrid::defaults()))
        std::printf(" %s", s.label().c_str());
    std::printf("\n");
}

int
runTorture(cli::Args &a)
{
    TortureConfig cfg;
    cfg.workloads = a.list("--workloads");
    for (const std::string &w : cfg.workloads)
        makeInvariant(w);  // names the valid set when unknown
    cfg.domains = a.domains();
    cfg.specs = a.points();
    for (const std::string &s : a.list("--seeds"))
        cfg.seeds.push_back(requireU64("--seeds", s));
    for (const std::string &s : a.list("--survive")) {
        const double p = requireDecimal("--survive", s);
        if (p > 1.0)
            fatal("--survive: want a probability in [0, 1], got '", s,
                  "'");
        cfg.survive_probs.push_back(p);
    }
    cfg.jobs = a.jobs(execWorkersFromEnv(cfg.jobs));
    cfg.media = a.media().value_or(cfg.media);
    const bool scale = a.has("--scale");
    const bool tsv = a.has("--tsv");
    const bool summary_only = a.has("--summary-only");
    const bool list_only = a.has("--list");
    a.done();
    if (list_only) {
        list();
        return 0;
    }

    // --scale widens the spec and seed axes to the 10k+ grid unless
    // the caller pinned them explicitly.
    if (scale) {
        if (cfg.specs.empty())
            cfg.specs = CrashScheduler::enumerate(CrashGrid::fine());
        if (cfg.seeds.empty())
            for (std::uint64_t s = 1; s <= 12; ++s)
                cfg.seeds.push_back(s);
    }

    TortureConfig counted = cfg;
    counted.applyDefaults();
    std::printf("sweeping %zu crash scenarios (--jobs %d, "
                "--media %s)...\n",
                counted.scenarioCount(), cfg.jobs,
                mediaKey(cfg.media).c_str());

    const auto t0 = std::chrono::steady_clock::now();
    const TortureReport report = TortureRunner::run(cfg);
    const double wall_s =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (!summary_only) {
        if (tsv)
            report.table().printTsv(std::cout);
        else
            report.table().print(std::cout);
        std::printf("\n");
    }
    report.summary().print(std::cout);
    const std::array<std::size_t, 4> counts =
        report.classCounts();
    std::printf("\nscenarios: %zu  strict-ok: %zu  ddio-trap: %zu"
                "  not-fired: %zu  violations: %zu\n",
                report.results.size(),
                counts[static_cast<int>(OutcomeClass::StrictOk)],
                counts[static_cast<int>(OutcomeClass::DdioTrap)],
                counts[static_cast<int>(OutcomeClass::NotFired)],
                counts[static_cast<int>(OutcomeClass::Violation)]);
    std::printf("signature: %016llx\n",
                static_cast<unsigned long long>(
                    report.signature()));
    std::printf("sweep wall: %.3f s  (%zu scenarios, --jobs %d, "
                "%.0f scenarios/s)\n",
                wall_s, report.results.size(), cfg.jobs,
                wall_s > 0 ? report.results.size() / wall_s : 0.0);

    if (counts[static_cast<int>(OutcomeClass::Violation)] != 0) {
        for (const TortureResult &r : report.results) {
            if (r.cls == OutcomeClass::Violation)
                std::printf("VIOLATION %s: %s\n", r.key().c_str(),
                            r.detail.c_str());
        }
        return 1;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gpmtorture", kUsage, argc, argv, runTorture);
}
