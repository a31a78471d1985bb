/**
 * @file
 * Figure 12: PCIe write bandwidth from GPU to PM under GPM, against
 * the ~13 GB/s achievable link maximum.
 *
 * Paper shape: transactional workloads sit far below the link maximum
 * (0.2-2.6 GB/s — Optane's random/unaligned tiers are the
 * bottleneck); checkpointing workloads stream aligned and run high;
 * BFS writes random addresses and sits lowest; SRAD streams unaligned
 * and lands mid-range.
 */
#include "bench/bench_util.hpp"
#include "harness/experiments.hpp"

using namespace gpm;
using namespace gpm::bench;

int
main()
{
    const SimConfig cfg = driverConfig("fig12_pcie_bandwidth");
    Table table({"Class", "Workload", "PM write BW (GB/s)",
                 "Link max (GB/s)"});

    for (const Bench b : kAllBenches) {
        const WorkloadResult r = runBench(b, PlatformKind::Gpm, cfg);
        // Checkpointing traffic only flows while checkpoints run.
        const double gbps = static_cast<double>(r.pcie_write_bytes) /
                            comparableNs(b, r);
        table.addRow({benchClass(b), benchName(b), Table::num(gbps),
                      Table::num(cfg.pcie_gbps, 1)});
    }
    report("Figure 12: PCIe write bandwidth to PM under GPM", table);
    return 0;
}
