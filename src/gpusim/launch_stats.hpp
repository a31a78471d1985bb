/**
 * @file
 * Launch accounting types of the executor: per-launch aggregate
 * stats, the raw per-warp access records that feed coalescing, and
 * the site identity they key on.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "memsim/nvm_model.hpp"

namespace gpm {

/** Stable identifier of a static memory-access site. */
using SiteId = std::uint64_t;

/** Aggregate accounting for one kernel launch. */
struct LaunchStats {
    std::uint64_t blocks = 0;
    std::uint64_t threads = 0;
    std::uint64_t phases = 0;

    double work_ops = 0;             ///< abstract ALU work (ctx.work)
    std::uint64_t hbm_bytes = 0;     ///< device-memory traffic

    std::uint64_t pm_payload_bytes = 0;  ///< bytes the program stored to PM
    std::uint64_t pm_line_txns = 0;  ///< coalesced 128 B write transactions
    std::uint64_t pm_line_bytes = 0; ///< pm_line_txns * coalesce granule
    std::uint64_t pm_read_bytes = 0; ///< PM load payload

    std::uint64_t fences = 0;        ///< system-scope fences executed
    NvmTierBytes nvm;                ///< classified NVM write bytes

    LaunchStats &
    operator+=(const LaunchStats &o)
    {
        blocks += o.blocks;
        threads += o.threads;
        phases += o.phases;
        work_ops += o.work_ops;
        hbm_bytes += o.hbm_bytes;
        pm_payload_bytes += o.pm_payload_bytes;
        pm_line_txns += o.pm_line_txns;
        pm_line_bytes += o.pm_line_bytes;
        pm_read_bytes += o.pm_read_bytes;
        fences += o.fences;
        nvm += o.nvm;
        return *this;
    }

    /** Field-wise equality; the determinism suite compares work_ops
     *  bitwise, which only holds because sequential and parallel
     *  launches sum it in the same block order. */
    bool operator==(const LaunchStats &o) const = default;
};

/** One raw PM store recorded by a thread before coalescing. */
struct WarpAccess {
    SiteId site;
    std::uint32_t occurrence;
    std::uint64_t addr;
    std::uint32_t size;
    std::uint64_t stream = 0;  ///< media-stream override (0 = warp)
};

/** Per-warp access buffer for the running phase. */
struct WarpRecorder {
    std::vector<WarpAccess> accesses;
};

} // namespace gpm
