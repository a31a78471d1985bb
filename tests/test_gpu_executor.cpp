/**
 * @file
 * Unit + property tests for the SIMT executor: thread identity, phase
 * (barrier) semantics, warp coalescing, divergence handling, fence
 * accounting, crash points, and launch statistics.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "gpusim/gpu_executor.hpp"
#include "gpusim/kernel.hpp"
#include "memsim/nvm_model.hpp"
#include "pmem/pm_pool.hpp"

namespace gpm {
namespace {

struct Rig {
    SimConfig cfg;
    PmPool pool{16_MiB, PersistDomain::McDurable};
    NvmModel nvm{cfg};
    GpuExecutor gpu{cfg, pool, nvm};
};

TEST(GpuExecutor, ThreadIdentity)
{
    Rig rig;
    KernelDesc k;
    k.name = "ids";
    k.blocks = 3;
    k.block_threads = 96;
    std::set<std::uint64_t> gids;
    k.phases.push_back([&](ThreadCtx &ctx) {
        gids.insert(ctx.globalId());
        EXPECT_EQ(ctx.globalId(),
                  std::uint64_t(ctx.blockIdx()) * ctx.blockDim() +
                      ctx.threadIdx());
        EXPECT_EQ(ctx.lane(), ctx.threadIdx() % 32);
        EXPECT_EQ(ctx.warpInBlock(), ctx.threadIdx() / 32);
        EXPECT_EQ(ctx.globalWarp(),
                  std::uint64_t(ctx.blockIdx()) * 3 +
                      ctx.warpInBlock());
        EXPECT_EQ(ctx.gridDim(), 3u);
        EXPECT_EQ(ctx.blockDim(), 96u);
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_EQ(gids.size(), 288u);
    EXPECT_EQ(s.threads, 288u);
    EXPECT_EQ(s.blocks, 3u);
}

TEST(GpuExecutor, PhasesActAsBlockBarriers)
{
    Rig rig;
    // Phase 0 writes per-thread values; phase 1 reads a *different*
    // thread's value — only correct if the barrier semantics hold.
    std::vector<std::uint32_t> shared(128, 0);
    bool ok = true;
    KernelDesc k;
    k.name = "barrier";
    k.blocks = 1;
    k.block_threads = 128;
    k.phases.push_back([&](ThreadCtx &ctx) {
        shared[ctx.threadIdx()] = ctx.threadIdx() + 1;
    });
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint32_t peer = 127 - ctx.threadIdx();
        ok = ok && shared[peer] == peer + 1;
    });
    rig.gpu.launch(k);
    EXPECT_TRUE(ok);
}

TEST(GpuExecutor, WarpLaneStoresCoalesceToOneLine)
{
    Rig rig;
    KernelDesc k;
    k.name = "coalesce";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint32_t v = ctx.lane();
        ctx.pmStore(std::uint64_t(ctx.lane()) * 4, v);
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_EQ(s.pm_line_txns, 1u);        // 32 x 4 B -> one 128 B txn
    EXPECT_EQ(s.pm_line_bytes, 128u);
    EXPECT_EQ(s.pm_payload_bytes, 128u);
}

TEST(GpuExecutor, ScatteredStoresDoNotCoalesce)
{
    Rig rig;
    KernelDesc k;
    k.name = "scattered";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint32_t v = 1;
        ctx.pmStore(std::uint64_t(ctx.lane()) * 4096, v);
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_EQ(s.pm_line_txns, 32u);
}

TEST(GpuExecutor, LoopIterationsCoalescePerOccurrence)
{
    Rig rig;
    KernelDesc k;
    k.name = "loop";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        for (std::uint32_t i = 0; i < 4; ++i) {
            const std::uint32_t v = i;
            // Iteration i of all lanes shares a 128 B line.
            ctx.pmStore((std::uint64_t(i) * 32 + ctx.lane()) * 4, v);
        }
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_EQ(s.pm_line_txns, 4u);
}

TEST(GpuExecutor, DivergentThreadsDoNotMergeAcrossSites)
{
    Rig rig;
    KernelDesc k;
    k.name = "divergent";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint32_t v = 1;
        if (ctx.lane() % 2 == 0)
            ctx.pmStore(std::uint64_t(ctx.lane()) * 4, v);
        else
            ctx.pmStore(4096 + std::uint64_t(ctx.lane()) * 4, v);
    });
    const LaunchStats s = rig.gpu.launch(k);
    // Two separate program points -> two coalesced transactions.
    EXPECT_EQ(s.pm_line_txns, 2u);
}

TEST(GpuExecutor, FenceCountsAndPersists)
{
    Rig rig;
    KernelDesc k;
    k.name = "fence";
    k.blocks = 2;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint64_t v = ctx.globalId();
        ctx.pmStore(ctx.globalId() * 8, v);
        EXPECT_TRUE(ctx.threadfenceSystem());
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_EQ(s.fences, 64u);
    EXPECT_EQ(rig.pool.pendingExtents(), 0u);
    EXPECT_EQ(rig.pool.loadDurable<std::uint64_t>(63 * 8), 63u);
}

TEST(GpuExecutor, WorkAndHbmAccumulate)
{
    Rig rig;
    KernelDesc k;
    k.name = "work";
    k.blocks = 1;
    k.block_threads = 64;
    k.phases.push_back([&](ThreadCtx &ctx) {
        ctx.work(2.5);
        ctx.hbmTraffic(100);
    });
    const LaunchStats s = rig.gpu.launch(k);
    EXPECT_DOUBLE_EQ(s.work_ops, 160.0);
    EXPECT_EQ(s.hbm_bytes, 6400u);
}

TEST(GpuExecutor, RejectsEmptyKernels)
{
    Rig rig;
    KernelDesc k;
    k.name = "empty";
    EXPECT_THROW(rig.gpu.launch(k), FatalError);
    k.phases.push_back([](ThreadCtx &) {});
    k.blocks = 0;
    EXPECT_THROW(rig.gpu.launch(k), FatalError);
}

class CrashPointSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(CrashPointSweep, ExecutesExactlyNThreadPhases)
{
    Rig rig;
    const std::uint64_t crash_at = GetParam() * 37;
    std::uint64_t executed = 0;
    KernelDesc k;
    k.name = "crash";
    k.blocks = 4;
    k.block_threads = 64;
    k.phases.push_back([&](ThreadCtx &) { ++executed; });
    k.phases.push_back([&](ThreadCtx &) { ++executed; });
    k.crash = CrashPoint{crash_at};
    try {
        rig.gpu.launch(k);
        FAIL() << "crash point did not fire";
    } catch (const KernelCrashed &c) {
        EXPECT_EQ(c.executed_thread_phases, crash_at);
        EXPECT_EQ(executed, crash_at);
    }
}

INSTANTIATE_TEST_SUITE_P(Points, CrashPointSweep,
                         ::testing::Range(0, 13));

TEST(GpuExecutor, EventTriggersFireAtTheirOrdinal)
{
    // Fence and store ordinals count over the whole launch in block
    // order, so a trigger may land in any block. The kernel counts
    // its own events just before issuing each one: when the trigger
    // fires, that count equals the ordinal. Ordinals past the launch
    // never fire and the launch completes. 6 blocks x 64 threads x 2
    // phases; every thread stores twice and fences once per phase.
    constexpr std::uint64_t kThreads = 6 * 64;
    struct Case {
        CrashPoint point;
        bool fires;
    };
    const Case cases[] = {
        {CrashPoint::beforeFence(1), true},
        {CrashPoint::beforeFence(150), true},  // block 1
        {CrashPoint::afterFence(1), true},
        {CrashPoint::afterFence(kThreads + 99), true},  // block 3
        {CrashPoint::afterFence(2 * kThreads + 1), false},
        {CrashPoint::afterPmStore(1), true},
        {CrashPoint::afterPmStore(500), true},
        {CrashPoint::afterPmStore(4 * kThreads), true},  // the last
        {CrashPoint::afterPmStore(4 * kThreads + 1), false},
    };
    for (const Case &c : cases) {
        Rig rig;
        std::uint64_t fences = 0, stores = 0;
        std::uint64_t fence_slot = 0;  ///< first store of the fencer
        KernelDesc k;
        k.name = "triggers";
        k.blocks = 6;
        k.block_threads = 64;
        for (int p = 0; p < 2; ++p) {
            k.phases.push_back([&, p](ThreadCtx &ctx) {
                const std::uint64_t base = (ctx.globalId() * 4 + p * 2) * 8;
                ++stores;
                ctx.pmStore(base, ctx.globalId() + 1);
                ++stores;
                ctx.pmStore(base + 8, ~ctx.globalId());
                ++fences;
                fence_slot = base;
                ctx.threadfenceSystem();
            });
        }
        k.crash = c.point;
        bool fired = false;
        try {
            rig.gpu.launch(k);
        } catch (const KernelCrashed &) {
            fired = true;
        }
        EXPECT_EQ(fired, c.fires) << c.point.describe();
        if (!fired)
            continue;
        // The fencing thread's stores are durable only after its fence.
        std::uint64_t durable = 0;
        std::memcpy(&durable, rig.pool.durable() + fence_slot, 8);
        switch (c.point.trigger) {
          case CrashPoint::Trigger::BeforeFence:
            EXPECT_EQ(fences, c.point.count);
            EXPECT_EQ(durable, 0u) << c.point.describe();
            break;
          case CrashPoint::Trigger::AfterFence:
            EXPECT_EQ(fences, c.point.count);
            EXPECT_EQ(durable, fence_slot / 32 + 1) << c.point.describe();
            break;
          default:
            EXPECT_EQ(stores, c.point.count);
            break;
        }
        // Partial stats hold exactly the blocks that completed.
        const std::uint64_t done_blocks = (stores - 1) / (4 * 64);
        EXPECT_EQ(rig.gpu.lastLaunchStats().pm_payload_bytes,
                  done_blocks * 4 * 64 * 8)
            << c.point.describe();
    }
}

TEST(GpuExecutor, LaterBlocksSeeEarlierBlocksStores)
{
    // Blocks run in order, so block b may read what block b-1 wrote
    // in the same launch.
    Rig rig;
    std::uint64_t chain_errors = 0;
    KernelDesc k;
    k.name = "chained";
    k.blocks = 8;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        if (ctx.threadIdx() != 0)
            return;
        const std::uint64_t prev =
            ctx.blockIdx() == 0
                ? 0
                : ctx.pmLoad<std::uint64_t>((ctx.blockIdx() - 1) * 8);
        if (prev != std::uint64_t(ctx.blockIdx()))
            ++chain_errors;
        ctx.pmStore(std::uint64_t(ctx.blockIdx()) * 8,
                    std::uint64_t(ctx.blockIdx()) + 1);
    });
    rig.gpu.launch(k);
    EXPECT_EQ(chain_errors, 0u);
}

TEST(GpuExecutor, StreamOverrideUnifiesCrossWarpAppends)
{
    // Two warps appending 8 B records to one shared tail region (the
    // conventional-log pattern): per-warp stream identity sees two
    // short, random-tier runs; the explicit stream override lets the
    // media merge them into one sequential run.
    auto run = [&](bool with_override) {
        Rig rig;
        KernelDesc k;
        k.name = "appends";
        k.blocks = 1;
        k.block_threads = 64;  // two warps cover 512 B back-to-back
        k.phases.push_back([with_override](ThreadCtx &ctx) {
            const std::uint64_t addr = ctx.globalId() * 8;
            const std::uint64_t rec = ctx.globalId();
            if (with_override)
                ctx.pmWriteStream(1ull << 50, addr, &rec, 8);
            else
                ctx.pmWrite(addr, &rec, 8);
        });
        const LaunchStats s = rig.gpu.launch(k);
        return s.nvm;
    };
    const NvmTierBytes merged = run(true);
    const NvmTierBytes split = run(false);
    EXPECT_EQ(merged.seq_aligned, 512u);  // one 512 B aligned run
    EXPECT_EQ(merged.random, 0u);
    EXPECT_EQ(split.random, 512u);        // two sub-2-line runs
    EXPECT_EQ(split.seq_aligned, 0u);
}

TEST(GpuExecutor, NvmTierDeltaIsPerLaunch)
{
    Rig rig;
    KernelDesc k;
    k.name = "delta";
    k.blocks = 1;
    k.block_threads = 32;
    k.phases.push_back([&](ThreadCtx &ctx) {
        const std::uint32_t v = 0;
        for (std::uint32_t i = 0; i < 16; ++i)
            ctx.pmStore((std::uint64_t(i) * 32 + ctx.lane()) * 4, v);
    });
    const LaunchStats s1 = rig.gpu.launch(k);
    const LaunchStats s2 = rig.gpu.launch(k);
    // Each launch writes one aligned 2 KiB run.
    EXPECT_EQ(s1.nvm.total(), 2048u);
    EXPECT_EQ(s2.nvm.total(), 2048u);
}

} // namespace
} // namespace gpm
