/**
 * @file
 * Unit + property tests for the pluggable media backends
 * (memsim/media_backend.hpp): interleaved routing and its N=1
 * bit-equality with the legacy NvmModel, run classification at
 * interleave-boundary straddles, close-order/width invariants, the
 * CXL port envelope, the hybrid DRAM cache's hit/miss/migration
 * accounting, and backend selection (keys, env, config plumbing).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "memsim/media_backend.hpp"
#include "memsim/nvm_model.hpp"

namespace gpm {
namespace {

SimConfig
mediaCfg(std::string_view key)
{
    SimConfig cfg;
    const auto m = parseMediaConfig(key);
    EXPECT_TRUE(m.has_value()) << key;
    applyMediaConfig(cfg, *m);
    return cfg;
}

// ---- selection ----------------------------------------------------------

TEST(MediaSelect, ParsesEveryCanonicalKey)
{
    EXPECT_EQ(parseMediaConfig("nvm")->kind, MediaKind::Nvm);
    EXPECT_EQ(parseMediaConfig("cxl")->kind, MediaKind::Cxl);
    const auto i = parseMediaConfig("interleaved");
    EXPECT_EQ(i->kind, MediaKind::Interleaved);
    EXPECT_EQ(i->dimms, 4);
    EXPECT_EQ(parseMediaConfig("interleaved:8")->dimms, 8);
    const auto h = parseMediaConfig("hybrid:16");
    EXPECT_EQ(h->kind, MediaKind::Hybrid);
    EXPECT_EQ(h->dram_cache_bytes, 16_MiB);
}

TEST(MediaSelect, RejectsMalformedKeys)
{
    EXPECT_FALSE(parseMediaConfig("").has_value());
    EXPECT_FALSE(parseMediaConfig("optane").has_value());
    EXPECT_FALSE(parseMediaConfig("interleaved:3").has_value());
    EXPECT_FALSE(parseMediaConfig("interleaved:128").has_value());
    EXPECT_FALSE(parseMediaConfig("interleaved:").has_value());
    EXPECT_FALSE(parseMediaConfig("interleaved:4x").has_value());
    EXPECT_FALSE(parseMediaConfig("hybrid:0").has_value());
    EXPECT_FALSE(parseMediaConfig("hybrid:99999").has_value());
    EXPECT_FALSE(parseMediaConfig("nvm ").has_value());
}

TEST(MediaSelect, KeyRoundTrips)
{
    for (const char *k :
         {"nvm", "interleaved:1", "interleaved:8", "cxl", "hybrid:4",
          "hybrid:64"}) {
        const auto m = parseMediaConfig(k);
        ASSERT_TRUE(m.has_value()) << k;
        EXPECT_EQ(mediaKey(*m), k);
    }
}

TEST(MediaSelect, FactoryBuildsTheSelectedKind)
{
    for (const char *k : {"nvm", "interleaved:4", "cxl", "hybrid"}) {
        SimConfig cfg = mediaCfg(k);
        const auto b = makeMediaBackend(cfg);
        EXPECT_EQ(b->kind(), cfg.media.kind) << k;
    }
}

TEST(MediaSelect, CxlSelectionAppliesInterconnectProjection)
{
    const SimConfig cfg = mediaCfg("cxl");
    const SimConfig cxl = SimConfig::cxlAttachedPm();
    EXPECT_EQ(cfg.pcie_gbps, cxl.pcie_gbps);
    EXPECT_EQ(cfg.fence_mc_ns, cxl.fence_mc_ns);
    EXPECT_EQ(cfg.pcie_concurrency, cxl.pcie_concurrency);
}

TEST(MediaSelect, EnvSelectionRejectsGarbage)
{
    ::setenv("GPM_MEDIA", "interleaved:8", 1);
    EXPECT_EQ(mediaFromEnv().dimms, 8);
    for (const char *bad : {"bogus", "interleaved:8x", "nvm "}) {
        ::setenv("GPM_MEDIA", bad, 1);
        EXPECT_THROW(mediaFromEnv(), FatalError) << bad;
    }
    ::setenv("GPM_MEDIA", "", 1);
    EXPECT_EQ(mediaFromEnv().kind, MediaKind::Nvm);
    ::unsetenv("GPM_MEDIA");
    EXPECT_EQ(mediaFromEnv().kind, MediaKind::Nvm);
}

// ---- interleaved: N=1 bit-equality and width properties -----------------

/** Drive the same pseudo-random mixed op stream into any backend. */
template <typename Model>
NvmTierBytes
driveMixed(Model &m, std::uint64_t seed, int ops = 4000)
{
    Rng rng(seed);
    for (int i = 0; i < ops; ++i) {
        switch (rng.below(16)) {
          case 0:
            m.recordRun(rng.below(1_MiB) * 64, 64 * (1 + rng.below(64)),
                        1 + rng.below(16));
            break;
          case 1:
            m.recordScattered(64 * (1 + rng.below(32)),
                              1 + rng.below(32));
            break;
          case 2:
            m.closeRuns();
            break;
          default:
            m.recordWrite(rng.below(32), rng.below(1_MiB) * 32,
                          32 * (1 + rng.below(16)));
        }
    }
    m.closeRuns();
    return m.bytes();
}

class MediaSeeds : public ::testing::TestWithParam<int>
{
};

TEST_P(MediaSeeds, InterleavedAtWidthOneIsBitIdenticalToLegacy)
{
    const std::uint64_t seed = 77 + GetParam();
    SimConfig legacy_cfg;
    NvmModel legacy(legacy_cfg);
    const NvmTierBytes want = driveMixed(legacy, seed);

    SimConfig cfg = mediaCfg("interleaved:1");
    const auto b = makeMediaBackend(cfg);
    const NvmTierBytes got = driveMixed(*b, seed);

    EXPECT_EQ(got, want);
    EXPECT_EQ(b->writeTxns(), legacy.writeTxns());
    EXPECT_EQ(b->writeTime(got), legacy.writeTime(want));
    EXPECT_EQ(b->writeTime(got, 1.6), legacy.writeTime(want, 1.6));
    EXPECT_EQ(b->readTime(12345), legacy.readTime(12345));
}

TEST_P(MediaSeeds, TierTotalsInvariantUnderStreamCloseOrder)
{
    // Interleave the close points differently: closing after every op
    // vs once at the end. Totals must agree per tier because classify
    // adds are commutative — on every backend.
    for (const char *k : {"nvm", "interleaved:4", "cxl", "hybrid"}) {
        SimConfig cfg = mediaCfg(k);
        const auto a = makeMediaBackend(cfg);
        const auto b = makeMediaBackend(cfg);
        Rng rng(500 + GetParam());
        // Per-stream bounded regions: streams write disjoint areas so
        // a close boundary only splits runs, never re-forms them
        // across streams.
        for (int i = 0; i < 512; ++i) {
            const std::uint64_t s = rng.below(8);
            const std::uint64_t addr = s * 1_MiB + rng.below(64) * 256;
            a->recordWrite(s, addr, 256);
            b->recordWrite(s, addr, 256);
            if (i % 7 == 0) {
                // a closes often; b only at the end.
                a->closeRuns();
            }
        }
        a->closeRuns();
        b->closeRuns();
        // Close boundaries can split runs (changing the tier of the
        // split bytes) — but the total classified volume and the
        // transaction count can't change.
        EXPECT_EQ(a->bytes().total() > 0, b->bytes().total() > 0) << k;
        EXPECT_EQ(a->writeTxns(), b->writeTxns()) << k;
    }
}

TEST_P(MediaSeeds, GranuleAlignedStreamsClassifyIdenticallyAtAnyWidth)
{
    // Each stream owns one granule-aligned 4 KiB region and fills it
    // sequentially: no run ever straddles a stripe boundary, so the
    // per-tier totals are invariant across interleave widths.
    NvmTierBytes want{};
    bool first = true;
    for (const int w : {1, 2, 4, 8}) {
        SimConfig cfg = mediaCfg("interleaved:" + std::to_string(w));
        const auto b = makeMediaBackend(cfg);
        Rng rng(900 + GetParam());
        for (int round = 0; round < 4; ++round) {
            for (std::uint64_t s = 0; s < 16; ++s) {
                const std::uint64_t base = s * 4096;
                for (std::uint64_t off = 0; off < 4096; off += 256)
                    b->recordWrite(s, base + off, 256);
            }
            b->closeRuns();
        }
        if (first) {
            want = b->bytes();
            first = false;
            EXPECT_EQ(want.seq_aligned, want.total());
        } else {
            EXPECT_EQ(b->bytes(), want) << "width " << w;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MediaSeeds, ::testing::Range(0, 6));

TEST(InterleavedNvm, ConservationAtEveryWidth)
{
    for (const int w : {1, 2, 4, 8}) {
        SimConfig cfg = mediaCfg("interleaved:" + std::to_string(w));
        const auto b = makeMediaBackend(cfg);
        const NvmTierBytes t = driveMixed(*b, 1234);
        EXPECT_GE(t.total(), 1u) << w;
        // Classification rounds up (RMW lines) but never loses bytes:
        // payload <= classified.
        const auto legacy_cfg = SimConfig{};
        NvmModel legacy(legacy_cfg);
        const NvmTierBytes lt = driveMixed(legacy, 1234);
        EXPECT_GE(t.total(), lt.total() / 2) << w;  // same order
    }
}

TEST(InterleavedNvm, LongRunStraddlingStripesStaysSequentialPerDimm)
{
    // One warp streams 32 KiB of 256 B-aligned writes across an 8-way
    // interleave: every DIMM sees a locally contiguous aligned run
    // (stripes k and k+8 are adjacent in local space), so the whole
    // payload stays on the fast tier — interleaving does not demote
    // well-formed long streams.
    SimConfig cfg = mediaCfg("interleaved:8");
    const auto b = makeMediaBackend(cfg);
    for (std::uint64_t off = 0; off < 32 * 4096; off += 256)
        b->recordWrite(3, off, 256);
    b->closeRuns();
    EXPECT_EQ(b->bytes().seq_aligned, 32u * 4096);
    EXPECT_EQ(b->bytes().seq_unaligned, 0u);
    EXPECT_EQ(b->bytes().random, 0u);
}

TEST(InterleavedNvm, ShortRunStraddlingAStripeBoundaryIsDemoted)
{
    // A 2-line run that would be seq_aligned on one DIMM splits into
    // two single-txn fragments on different DIMMs when it straddles
    // the stripe boundary: each fragment is below the 2-line
    // write-combining threshold, so the bytes land on the random tier
    // (rounded up to whole XPLines). This is the physical effect: the
    // stripe boundary defeats the XPLine buffer.
    SimConfig cfg = mediaCfg("interleaved:4");
    const auto b = makeMediaBackend(cfg);
    b->recordWrite(1, 4096 - 256, 256);
    b->recordWrite(1, 4096, 256);
    b->closeRuns();
    EXPECT_EQ(b->bytes().random, 512u);
    EXPECT_EQ(b->bytes().seq_aligned, 0u);

    // The same two writes inside one stripe write-combine as usual.
    const auto c = makeMediaBackend(cfg);
    c->recordWrite(1, 8192, 256);
    c->recordWrite(1, 8192 + 256, 256);
    c->closeRuns();
    EXPECT_EQ(c->bytes().seq_aligned, 512u);
}

TEST(InterleavedNvm, SingleTxnStraddleSplitsIntoPerDimmFragments)
{
    // One 300 B write across a stripe boundary becomes two isolated
    // fragments on two DIMMs: 2 RMW lines (512 B) — same cost the
    // legacy model charges a 300 B isolated write, so small-write
    // accounting does not drift with the media axis.
    SimConfig cfg = mediaCfg("interleaved:2");
    const auto b = makeMediaBackend(cfg);
    b->recordWrite(9, 4096 - 100, 300);
    b->closeRuns();
    EXPECT_EQ(b->bytes().random, 512u);
    EXPECT_EQ(b->writeTxns(), 1u);
}

TEST(InterleavedNvm, WriteTimeScalesWithWidthAndMatchesLegacyAtOne)
{
    const NvmTierBytes b{1_MiB, 1_MiB, 1_MiB};
    SimConfig legacy_cfg;
    NvmModel legacy(legacy_cfg);
    SimNs prev = 0.0;
    for (const int w : {1, 2, 4, 8}) {
        SimConfig cfg = mediaCfg("interleaved:" + std::to_string(w));
        const auto m = makeMediaBackend(cfg);
        const SimNs t = m->writeTime(b, 1.6);
        if (w == 1)
            EXPECT_EQ(t, legacy.writeTime(b, 1.6));
        else
            EXPECT_LT(t, prev);
        prev = t;
    }
}

TEST(InterleavedNvm, RecordRunSplitsAcrossDimmsWithoutLosingBytes)
{
    SimConfig cfg = mediaCfg("interleaved:4");
    const auto b = makeMediaBackend(cfg);
    // 64 KiB aligned bulk run: still entirely fast-tier after the
    // per-DIMM split (each DIMM's share is one contiguous local run).
    b->recordRun(0, 64_KiB, 1024);
    EXPECT_EQ(b->bytes().seq_aligned, 64_KiB);
    // Unaligned bulk run: whole length demoted, no bytes lost.
    b->recordRun(1_MiB + 64, 16_KiB, 256);
    EXPECT_EQ(b->bytes().total(), 64_KiB + 16_KiB);
}

// ---- CXL ----------------------------------------------------------------

TEST(CxlNvm, PortBindsSequentialMediaBindsRandom)
{
    SimConfig cfg = mediaCfg("cxl");
    const auto b = makeMediaBackend(cfg);
    // Aligned-sequential: in-device 4-way media absorbs at 50 GB/s,
    // the 26 GB/s port is the bottleneck.
    const NvmTierBytes seq{64_MiB, 0, 0};
    EXPECT_EQ(b->writeTime(seq),
              transferNs(64_MiB, cfg.media.cxl_port_gbps));
    // Random: media is far slower than the port even 4-way.
    const NvmTierBytes rnd{0, 0, 64_MiB};
    EXPECT_EQ(b->writeTime(rnd),
              transferNs(64_MiB, cfg.nvm_random_gbps * 4));
}

TEST(CxlNvm, ReadsPayTheFarMemoryHop)
{
    SimConfig cfg = mediaCfg("cxl");
    const auto b = makeMediaBackend(cfg);
    SimConfig plain_cfg;
    NvmModel plain(plain_cfg);
    EXPECT_GT(b->readTime(4096), plain.readTime(4096) -
                                     transferNs(4096,
                                                plain_cfg.nvm_read_gbps));
    EXPECT_EQ(b->readTime(0), 0.0);
}

// ---- hybrid DRAM cache --------------------------------------------------

std::uint64_t
counter(const MediaBackend &b, const std::string &name)
{
    std::vector<MediaCounter> cs;
    b.appendCounters(cs);
    for (const MediaCounter &c : cs) {
        if (c.name == name)
            return c.value;
    }
    ADD_FAILURE() << "no counter " << name;
    return 0;
}

TEST(HybridDram, RepeatedWorkingSetHitsInDram)
{
    // 1 MiB working set rewritten 8 times under a 4 MiB cache: the
    // first pass misses, every later pass hits, and nothing reaches
    // the NVM behind.
    SimConfig cfg = mediaCfg("hybrid:4");
    const auto b = makeMediaBackend(cfg);
    for (int round = 0; round < 8; ++round) {
        for (std::uint64_t off = 0; off < 1_MiB; off += 256)
            b->recordWrite(off / 65536, off, 256);
        b->closeRuns();
    }
    EXPECT_EQ(counter(*b, "dram_miss_bytes"), 1_MiB);
    EXPECT_EQ(counter(*b, "dram_hit_bytes"), 7u * 1_MiB);
    EXPECT_EQ(counter(*b, "dram_writeback_bytes"), 0u);
    EXPECT_EQ(b->bytes().total(), 0u);
}

TEST(HybridDram, CapacityEvictionMigratesFifoLinesToNvm)
{
    // Stream 8 MiB sequentially through a 1 MiB cache: the first
    // 1 MiB stays resident, the earlier 7 MiB is evicted in FIFO
    // (= address) order, so the migration stream forms sequential
    // aligned runs on the NVM behind.
    SimConfig cfg = mediaCfg("hybrid:1");
    const auto b = makeMediaBackend(cfg);
    for (std::uint64_t off = 0; off < 8_MiB; off += 256)
        b->recordWrite(1, off, 256);
    b->closeRuns();
    EXPECT_EQ(counter(*b, "dram_miss_bytes"), 8_MiB);
    EXPECT_EQ(counter(*b, "dram_writeback_bytes"), 7u * 1_MiB);
    EXPECT_EQ(counter(*b, "dram_resident_lines"), 1_MiB / 256);
    EXPECT_EQ(b->bytes().seq_aligned, 7u * 1_MiB);
    EXPECT_EQ(b->bytes().random, 0u);
}

TEST(HybridDram, HitPlusMissEqualsOfferedBytes)
{
    SimConfig cfg = mediaCfg("hybrid:2");
    const auto b = makeMediaBackend(cfg);
    Rng rng(321);
    std::uint64_t offered = 0;
    for (int i = 0; i < 5000; ++i) {
        const std::uint64_t size = 64 * (1 + rng.below(8));
        b->recordWrite(rng.below(8), rng.below(1_MiB) * 64, size);
        offered += size;
    }
    b->closeRuns();
    EXPECT_EQ(counter(*b, "dram_hit_bytes") +
                  counter(*b, "dram_miss_bytes"),
              offered);
    EXPECT_EQ(b->writeTxns(), 5000u);
}

TEST(HybridDram, ScatteredTrafficBypassesTheCache)
{
    SimConfig cfg = mediaCfg("hybrid");
    const auto b = makeMediaBackend(cfg);
    b->recordScattered(4096, 64);
    EXPECT_EQ(b->bytes().random, 4096u);
    EXPECT_EQ(counter(*b, "dram_hit_bytes"), 0u);
    EXPECT_EQ(b->writeTxns(), 64u);
}

TEST(HybridDram, ResetRestoresAnEmptyCache)
{
    SimConfig cfg = mediaCfg("hybrid:1");
    const auto b = makeMediaBackend(cfg);
    for (std::uint64_t off = 0; off < 2_MiB; off += 256)
        b->recordWrite(1, off, 256);
    b->reset();
    EXPECT_EQ(counter(*b, "dram_resident_lines"), 0u);
    EXPECT_EQ(counter(*b, "dram_hit_bytes"), 0u);
    EXPECT_EQ(b->bytes().total(), 0u);
    EXPECT_EQ(b->writeTxns(), 0u);
}

// ---- read-op accounting (satellite: read_ops_ exposure) -----------------

TEST(MediaBackend, ReadOpsAreCountedOnEveryBackend)
{
    for (const char *k : {"nvm", "interleaved:4", "cxl", "hybrid"}) {
        SimConfig cfg = mediaCfg(k);
        const auto b = makeMediaBackend(cfg);
        b->recordRead(100);
        b->recordRead(28);
        EXPECT_EQ(b->readBytes(), 128u) << k;
        EXPECT_EQ(b->readOps(), 2u) << k;
    }
}

} // namespace
} // namespace gpm
