/**
 * @file
 * gpmbench — command-line driver for the GPMbench suite.
 *
 * Runs any (workload, platform) cell of the evaluation matrix with
 * the canonical (paper-scaled) configuration and prints the measured
 * simulated time, throughput, persisted payload and PM traffic:
 *
 *     gpmbench [--jobs N] [--media M] list
 *     gpmbench [--jobs N] [--media M] run <workload> <platform> [seed]
 *     gpmbench [--jobs N] [--media M] crash <workload> [seed]
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
 * ignore it. --jobs and the optional seed parse strictly
 * (common/env.hpp): malformed numbers exit 1.
 * --media M selects the PM media backend behind every cell's machine
 * (nvm, interleaved[:dimms], cxl, hybrid[:cache_mib]); defaults to
 * the GPM_MEDIA environment variable, else the single-DIMM paper
 * model. The key tables and the flag grammars live in the harness
 * (benchFromKey/platformFromKey, parseMediaConfig)
 * and are shared with gpmtrace.
 */
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "harness/experiments.hpp"
#include "memsim/media_backend.hpp"

using namespace gpm;
using namespace gpm::bench;

namespace {

void
printResult(Bench b, PlatformKind kind, const WorkloadResult &r)
{
    if (!r.supported) {
        std::printf("%-14s %-9s unsupported\n",
                    benchName(b).c_str(), platformName(kind).c_str());
        return;
    }
    std::printf("%-14s %-9s %10.3f ms  %8.2f Mops/s  "
                "%8.2f MiB persisted  %7.2f MiB PM traffic  %s\n",
                benchName(b).c_str(), platformName(kind).c_str(),
                toMs(r.op_ns), r.mops(),
                r.persisted_payload / (1024.0 * 1024.0),
                r.pcie_write_bytes / (1024.0 * 1024.0),
                r.verified ? "verified" : "VERIFY-FAILED");
}

int
usage()
{
    std::printf(
        "gpmbench — GPMbench driver (simulated GPM system)\n\n"
        "  gpmbench [--jobs N] [--media M] list\n"
        "  gpmbench [--jobs N] [--media M] run <workload> <platform> "
        "[seed]\n"
        "  gpmbench [--jobs N] [--media M] crash <workload> [seed]\n"
        "  gpmbench [--jobs N] [--media M] matrix\n\n"
        "workloads: kvs kvs95 dbi dbu dnn cfd blk hs bfs srad ps\n"
        "platforms: gpm ndp eadr capfs capmm capeadr gpufs\n"
        "--jobs N:  matrix sweep width (0 = hardware threads);\n"
        "           default from GPM_EXEC_WORKERS, else 1\n"
        "--media M: PM media backend (%s);\n"
        "           default from GPM_MEDIA, else nvm\n",
        mediaUsage());
    return 0;
}

/** The optional positional seed argv[i] (default 1), strictly parsed. */
std::uint64_t
seedArg(int argc, char **argv, int i)
{
    return i < argc ? requireU64("seed", argv[i]) : 1;
}

int
runCommand(int argc, char **argv)
{
    SimConfig cfg = bench::benchConfig();
    int jobs = execWorkersFromEnv(1);
    int argi = 1;
    while (argi + 1 < argc &&
           (std::strcmp(argv[argi], "--jobs") == 0 ||
            std::strcmp(argv[argi], "--media") == 0)) {
        if (std::strcmp(argv[argi], "--jobs") == 0) {
            jobs = requireExecWorkers("--jobs", argv[argi + 1]);
        } else {
            const std::optional<MediaConfig> m =
                parseMediaConfig(argv[argi + 1]);
            if (!m) {
                std::fprintf(stderr,
                             "gpmbench: unknown media backend '%s' "
                             "(valid: %s)\n",
                             argv[argi + 1], mediaUsage());
                return 1;
            }
            applyMediaConfig(cfg, *m);
        }
        argi += 2;
    }
    if (argi >= argc)
        return usage();
    const std::string cmd = argv[argi];
    argv += argi - 1;  // commands keep their argv[2..] positions
    argc -= argi - 1;

    if (cmd == "list") {
        for (const BenchKey &n : benchKeys()) {
            std::printf("%-7s %-14s %s\n", n.key,
                        benchName(n.bench).c_str(),
                        benchClass(n.bench).c_str());
        }
        return 0;
    }

    if (cmd == "run") {
        if (argc < 4)
            return usage();
        const auto b = benchFromKey(argv[2]);
        const auto kind = platformFromKey(argv[3]);
        if (!b || !kind) {
            std::fprintf(stderr, "unknown workload or platform\n");
            return 1;
        }
        printResult(*b, *kind,
                    runBench(*b, *kind, cfg, seedArg(argc, argv, 4)));
        return 0;
    }

    if (cmd == "crash") {
        if (argc < 3)
            return usage();
        const auto b = benchFromKey(argv[2]);
        if (!b) {
            std::fprintf(stderr, "unknown workload\n");
            return 1;
        }
        const WorkloadResult r =
            runBenchWithCrash(*b, cfg, seedArg(argc, argv, 3));
        if (r.op_ns == 0 && r.recovery_ns == 0) {
            std::printf("%s embeds its recovery in the application "
                        "itself (native persistence)\n",
                        benchName(*b).c_str());
            return 0;
        }
        std::printf("%-14s recovered=%s  restoration %.3f ms\n",
                    benchName(*b).c_str(), r.verified ? "yes" : "NO",
                    toMs(r.recovery_ns));
        return r.verified ? 0 : 1;
    }

    if (cmd == "matrix") {
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
        for (std::size_t i = 0; i < cells.size(); ++i)
            printResult(cells[i].b, cells[i].kind, results[i]);
        return 0;
    }

    return usage();
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runCommand(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "gpmbench: %s\n", e.what());
        return 1;
    }
}
