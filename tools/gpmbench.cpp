/**
 * @file
 * gpmbench — command-line driver for the GPMbench suite.
 *
 * Runs any (workload, platform) cell of the evaluation matrix with
 * the canonical (paper-scaled) configuration and prints the measured
 * simulated time, throughput, persisted payload and PM traffic:
 *
 *     gpmbench [--jobs N] [--media M] list
 *     gpmbench [--jobs N] [--media M] run <workload> <platform>
 *     gpmbench [--jobs N] [--media M] crash <workload>
 *     gpmbench [--jobs N] [--media M] matrix  # the full Fig 9 grid
 *
 * Workloads: kvs kvs95 dbi dbu dnn cfd blk hs bfs srad ps
 * Platforms: gpm ndp eadr capfs capmm capeadr gpufs
 *
 * --jobs N is the matrix command's sweep width: whole (workload,
 * platform) cells are swept over N host workers (0 = one per hardware
 * thread) with rows printed in canonical cell order, so results are
 * bit-identical at any width. Defaults to the GPM_EXEC_WORKERS
 * environment variable, else 1; run and crash execute one cell and
 * ignore it. Arguments and exit codes follow tools/cli.hpp.
 * --media M selects the PM media backend behind every cell's machine
 * (nvm, interleaved[:dimms], cxl, hybrid[:cache_mib]); defaults to
 * the GPM_MEDIA environment variable, else the single-DIMM paper
 * model.
 */
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/env.hpp"
#include "common/status.hpp"

using namespace gpm;
using namespace gpm::bench;

namespace {

/** Print one cell's row; false when a supported cell failed to verify. */
bool
printResult(Bench b, PlatformKind kind, const WorkloadResult &r)
{
    if (!r.supported) {
        std::printf("%-14s %-9s unsupported\n",
                    benchName(b).c_str(), platformName(kind).c_str());
        return true;
    }
    std::printf("%-14s %-9s %10.3f ms  %8.2f Mops/s  "
                "%8.2f MiB persisted  %7.2f MiB PM traffic  %s\n",
                benchName(b).c_str(), platformName(kind).c_str(),
                toMs(r.op_ns), r.mops(),
                r.persisted_payload / (1024.0 * 1024.0),
                r.pcie_write_bytes / (1024.0 * 1024.0),
                r.verified ? "verified" : "VERIFY-FAILED");
    return r.verified;
}

constexpr const char *kUsage =
    "usage: gpmbench [--jobs N] [--media M] list\n"
    "       gpmbench [--jobs N] [--media M] run <workload> <platform>\n"
    "       gpmbench [--jobs N] [--media M] crash <workload>\n"
    "       gpmbench [--jobs N] [--media M] matrix\n"
    "workloads: kvs kvs95 dbi dbu dnn cfd blk hs bfs srad ps\n"
    "platforms: gpm ndp eadr capfs capmm capeadr gpufs\n"
    "--jobs N:  matrix sweep width (0 = hardware threads);\n"
    "           default from GPM_EXEC_WORKERS, else 1\n"
    "--media M: PM media backend; default from GPM_MEDIA, else nvm\n";

int
runCommand(cli::Args &a)
{
    SimConfig cfg = bench::benchConfig();
    const int jobs = a.jobs(execWorkersFromEnv(1));
    if (const std::optional<MediaConfig> m = a.media())
        applyMediaConfig(cfg, *m);
    const std::string cmd = a.positional("command");

    if (cmd == "list") {
        a.done();
        cli::printBenchKeys();
        return 0;
    }

    if (cmd == "run") {
        const Bench b = cli::workload(a.positional("workload"));
        const PlatformKind kind = cli::platform(a.positional("platform"));
        a.done();
        return printResult(b, kind, runBench(b, kind, cfg)) ? 0 : 1;
    }

    if (cmd == "crash") {
        const Bench b = cli::workload(a.positional("workload"));
        a.done();
        const WorkloadResult r = runBenchWithCrash(b, cfg);
        if (r.op_ns == 0 && r.recovery_ns == 0) {
            std::printf("%s embeds its recovery in the application "
                        "itself (native persistence)\n",
                        benchName(b).c_str());
            return 0;
        }
        std::printf("%-14s recovered=%s  restoration %.3f ms\n",
                    benchName(b).c_str(), r.verified ? "yes" : "NO",
                    toMs(r.recovery_ns));
        return r.verified ? 0 : 1;
    }

    if (cmd == "matrix") {
        a.done();
        constexpr PlatformKind kMatrixPlatforms[] = {
            PlatformKind::CapFs,
            PlatformKind::CapMm,
            PlatformKind::Gpm,
            PlatformKind::Gpufs,
        };
        std::vector<BenchCell> cells;
        for (const BenchKey &n : benchKeys())
            for (const PlatformKind kind : kMatrixPlatforms)
                cells.push_back({n.bench, kind, 1});
        // Rows print in canonical cell order whatever finished first.
        const std::vector<WorkloadResult> results =
            runBenchCells(cells, cfg, jobs);
        bool ok = true;
        for (std::size_t i = 0; i < cells.size(); ++i)
            ok &= printResult(cells[i].b, cells[i].kind, results[i]);
        return ok ? 0 : 1;
    }

    fatal("unknown command '", cmd, "' (valid: list run crash matrix)");
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gpmbench", kUsage, argc, argv, runCommand);
}
