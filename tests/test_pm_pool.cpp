/**
 * @file
 * Unit + property tests for the crash-consistent PM device: region
 * mapping, the visible/durable split per persistence domain, fences,
 * range flushes, partial-eviction crashes, and file backing.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pmem/pm_pool.hpp"
#include "telemetry/telemetry.hpp"

namespace gpm {
namespace {

TEST(PmPool, RegionMappingAndReopen)
{
    PmPool pool(1_MiB, PersistDomain::McDurable);
    const PmRegion a = pool.map("a", 1000, true);
    const PmRegion b = pool.map("b", 2000, true);
    EXPECT_TRUE(isAligned(a.offset, 256));
    EXPECT_TRUE(isAligned(b.offset, 256));
    EXPECT_GE(b.offset, a.offset + a.size);

    const PmRegion a2 = pool.map("a", 0, false);  // reopen
    EXPECT_EQ(a2.offset, a.offset);
    EXPECT_THROW(pool.map("a", 123, true), FatalError);  // wrong size
    EXPECT_THROW(pool.map("missing", 0, false), FatalError);
    EXPECT_TRUE(pool.hasRegion("a"));
    EXPECT_FALSE(pool.hasRegion("c"));
}

TEST(PmPool, PoolExhaustionIsUserError)
{
    PmPool pool(4096, PersistDomain::McDurable);
    EXPECT_THROW(pool.map("big", 8192, true), FatalError);
}

TEST(PmPool, OutOfRangeAccessIsUserError)
{
    PmPool pool(4096, PersistDomain::McDurable);
    std::uint64_t v = 1;
    EXPECT_THROW(pool.deviceWrite(0, 4090, &v, 8), FatalError);
    EXPECT_THROW(pool.read(4096, &v, 1), FatalError);
}

TEST(PmPool, WritesVisibleImmediatelyButNotDurable)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t v = 0xdeadbeef;
    pool.deviceWrite(1, 0, &v, 8);
    EXPECT_EQ(pool.load<std::uint64_t>(0), v);
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 0u);
    EXPECT_EQ(pool.pendingExtents(), 1u);
}

TEST(PmPool, FencePersistsOnlyOwnersWrites)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t a = 1, b = 2;
    pool.deviceWrite(10, 0, &a, 8);
    pool.deviceWrite(11, 8, &b, 8);
    EXPECT_TRUE(pool.persistOwner(10));
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 1u);
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(8), 0u);
    pool.crash();
    EXPECT_EQ(pool.load<std::uint64_t>(8), 0u);  // b was lost
}

TEST(PmPool, LlcVolatileFenceDoesNotPersist)
{
    PmPool pool(4096, PersistDomain::LlcVolatile);
    const std::uint64_t v = 7;
    pool.deviceWrite(1, 0, &v, 8);
    EXPECT_FALSE(pool.persistOwner(1));  // DDIO trap
    pool.crash();
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 0u);
}

TEST(PmPool, LlcDurableIsDurableOnArrival)
{
    PmPool pool(4096, PersistDomain::LlcDurable);
    const std::uint64_t v = 9;
    pool.deviceWrite(1, 0, &v, 8);
    EXPECT_EQ(pool.pendingExtents(), 0u);
    EXPECT_TRUE(pool.persistOwner(1));
    pool.crash();
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 9u);
}

TEST(PmPool, PersistRangeDrainsAnyOwnerByAddress)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t a = 1, b = 2, c = 3;
    pool.deviceWrite(1, 0, &a, 8);
    pool.deviceWrite(2, 300, &b, 8);
    pool.cpuWrite(3, 600, &c, 8);
    pool.persistRange(0, 128);  // covers a and nothing else
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 1u);
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(600), 0u);
    EXPECT_EQ(pool.pendingExtents(), 2u);
    pool.persistAll();
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(300), 2u);
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(600), 3u);
}

TEST(PmPool, CrashResetsVisibleToDurable)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t a = 1, b = 2;
    pool.deviceWrite(1, 0, &a, 8);
    pool.persistOwner(1);
    pool.deviceWrite(1, 0, &b, 8);  // overwrite, unpersisted
    EXPECT_EQ(pool.load<std::uint64_t>(0), 2u);
    pool.crash();
    EXPECT_EQ(pool.load<std::uint64_t>(0), 1u);
    EXPECT_EQ(pool.pendingExtents(), 0u);
}

class PmPoolEviction : public ::testing::TestWithParam<int>
{
};

TEST_P(PmPoolEviction, PartialSurvivalIsPerExtentAndBounded)
{
    PmPool pool(64_KiB, PersistDomain::McDurable,
                static_cast<std::uint64_t>(GetParam()) + 1);
    const int n = 500;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t v = 0x1000 + i;
        pool.deviceWrite(i, i * 64, &v, 8);
    }
    pool.crash(/*survive_prob=*/0.5);
    int survived = 0;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t d =
            pool.loadDurable<std::uint64_t>(i * 64);
        if (d != 0) {
            EXPECT_EQ(d, 0x1000u + i);  // survivors are intact
            ++survived;
        }
    }
    // Loose binomial bounds around p = 0.5.
    EXPECT_GT(survived, n / 4);
    EXPECT_LT(survived, 3 * n / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PmPoolEviction, ::testing::Range(0, 6));

TEST(PmPool, SurviveProbabilityExtremes)
{
    PmPool lose(4096, PersistDomain::McDurable, 1);
    PmPool keep(4096, PersistDomain::McDurable, 1);
    const std::uint64_t v = 5;
    lose.deviceWrite(0, 0, &v, 8);
    keep.deviceWrite(0, 0, &v, 8);
    lose.crash(0.0);
    keep.crash(1.0);
    EXPECT_EQ(lose.loadDurable<std::uint64_t>(0), 0u);
    EXPECT_EQ(keep.loadDurable<std::uint64_t>(0), 5u);
}

TEST(PmPool, SaveAndLoadDurableRoundTrip)
{
    const char *path = "/tmp/gpm_test_pool.img";
    {
        PmPool pool(8192, PersistDomain::McDurable);
        pool.map("data", 512, true);
        const std::uint64_t v = 0xabcdef;
        pool.deviceWrite(0, pool.region("data").offset, &v, 8);
        pool.persistOwner(0);
        pool.saveDurable(path);
    }
    PmPool loaded =
        PmPool::loadDurable(path, PersistDomain::McDurable);
    EXPECT_EQ(loaded.capacity(), 8192u);
    const PmRegion data = loaded.region("data");
    EXPECT_EQ(data.size, 512u);
    EXPECT_EQ(loaded.load<std::uint64_t>(data.offset), 0xabcdefu);
    // Allocation cursor restored: a new region does not overlap.
    const PmRegion more = loaded.map("more", 256, true);
    EXPECT_GE(more.offset, data.offset + data.size);
    std::remove(path);
}

TEST(PmPool, ContiguousAppendsCoalesceIntoOneExtent)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t v = 1;
    for (std::uint64_t i = 0; i < 16; ++i)
        pool.deviceWrite(0, i * 8, &v, 8);
    // An append stream is one pending extent, not sixteen.
    EXPECT_EQ(pool.pendingExtents(), 1u);
    EXPECT_EQ(pool.pendingBytes(), 128u);
    EXPECT_EQ(pool.stats().extents_merged, 15u);
}

TEST(PmPool, RewritesDoNotDoubleCountPendingBytes)
{
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t v = 2;
    for (int i = 0; i < 10; ++i)
        pool.deviceWrite(0, 64, &v, 8);
    // Rewriting the same word overlaps the owner's last extent; the
    // dirty range stays 8 bytes.
    EXPECT_EQ(pool.pendingExtents(), 1u);
    EXPECT_EQ(pool.pendingBytes(), 8u);

    // Overlapping-but-growing writes track the union of the range.
    pool.deviceWrite(0, 60, &v, 8);   // extends left
    pool.deviceWrite(0, 68, &v, 8);   // extends right
    EXPECT_EQ(pool.pendingExtents(), 1u);
    EXPECT_EQ(pool.pendingBytes(), 16u);
}

TEST(PmPool, OnlyLastExtentIsMergeEligible)
{
    // Touching an *older* extent again does not merge (insertion
    // order — hence crash-time line enumeration — is preserved), so
    // the two extents persist and drain independently.
    PmPool pool(4096, PersistDomain::McDurable);
    const std::uint64_t v = 3;
    pool.deviceWrite(0, 0, &v, 8);     // extent A
    pool.deviceWrite(0, 1024, &v, 8);  // extent B (not adjacent)
    pool.deviceWrite(0, 8, &v, 8);     // abuts A, but A is not last
    EXPECT_EQ(pool.pendingExtents(), 3u);
    EXPECT_EQ(pool.pendingBytes(), 24u);
    EXPECT_EQ(pool.stats().extents_merged, 0u);
    EXPECT_TRUE(pool.persistOwner(0));
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(8), 3u);
}

TEST(PmPool, MergedExtentsPersistAndCrashCorrectly)
{
    PmPool a(4096, PersistDomain::McDurable, 11);
    PmPool b(4096, PersistDomain::McDurable, 11);
    // Same bytes, written as one contiguous stream (merges in `a`)
    // vs. strided then back-filled (no merges in `b`).
    std::uint8_t buf[32];
    for (int i = 0; i < 32; ++i)
        buf[i] = static_cast<std::uint8_t>(i + 1);
    for (std::uint64_t i = 0; i < 8; ++i)
        a.deviceWrite(0, i * 32, buf, 32);
    for (std::uint64_t i = 0; i < 8; i += 2)
        b.deviceWrite(0, i * 32, buf, 32);
    for (std::uint64_t i = 1; i < 8; i += 2)
        b.deviceWrite(0, i * 32, buf, 32);
    EXPECT_GT(a.stats().extents_merged, 0u);
    EXPECT_EQ(a.pendingBytes(), b.pendingBytes());
    a.persistOwner(0);
    b.persistOwner(0);
    EXPECT_EQ(std::memcmp(a.durable(), b.durable(), 4096), 0);
}

TEST(PmPool, ExtentCoalescingResetsAcrossCrashAndReopen)
{
    // GpmHeap's recovery path: crash, reopen the heap's regions by
    // name, and append again. The pending-extent machinery must start
    // clean — no stale merge-eligible extent may survive the failure —
    // and a fresh append stream coalesces exactly as the first did.
    PmPool pool(8_KiB, PersistDomain::McDurable, 7);
    const PmRegion slabs = pool.map("heap.slabs", 1024, true);
    std::uint64_t v = 0x11;
    for (std::uint64_t i = 0; i < 16; ++i)
        pool.deviceWrite(0, slabs.offset + i * 8, &v, 8);
    EXPECT_EQ(pool.pendingExtents(), 1u);
    EXPECT_EQ(pool.stats().extents_merged, 15u);

    pool.crash(/*survive_prob=*/0.0);
    EXPECT_EQ(pool.pendingExtents(), 0u);
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(slabs.offset), 0u);

    const PmRegion again = pool.map("heap.slabs", 0, false);
    EXPECT_EQ(again.offset, slabs.offset);
    v = 0x22;
    for (std::uint64_t i = 0; i < 16; ++i)
        pool.deviceWrite(0, again.offset + i * 8, &v, 8);
    EXPECT_EQ(pool.pendingExtents(), 1u);
    EXPECT_EQ(pool.pendingBytes(), 128u);
    EXPECT_EQ(pool.stats().extents_merged, 30u);
    EXPECT_TRUE(pool.persistOwner(0));
    for (std::uint64_t i = 0; i < 16; ++i)
        EXPECT_EQ(pool.loadDurable<std::uint64_t>(again.offset + i * 8),
                  0x22u);
}

TEST(PmPool, SubExtentTearingRespectsHeapHeaderBoundaries)
{
    // One contiguous write covers a 128 B heap header plus four slab
    // lines (GpmHeap's host-written redo area has this shape). The
    // merged extent must tear at 128 B line granularity: the header
    // line survives or dies independently of every slab line, and
    // whatever survives is byte-intact — never a half-written line.
    constexpr std::uint64_t kLine = 128;
    constexpr std::uint64_t kLines = 5;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        PmPool pool(8_KiB, PersistDomain::McDurable, seed);
        const PmRegion heap = pool.map("heap", kLines * kLine, true);
        ASSERT_TRUE(isAligned(heap.offset, kLine));
        std::uint8_t img[kLines * kLine];
        for (std::uint64_t i = 0; i < sizeof img; ++i)
            img[i] = static_cast<std::uint8_t>(i % 251 + 1);
        pool.deviceWrite(0, heap.offset, img, sizeof img);
        EXPECT_EQ(pool.pendingExtents(), 1u);

        pool.crash(/*survive_prob=*/0.5);
        EXPECT_EQ(pool.stats().crash_sub_extents, kLines);
        std::uint64_t survived = 0;
        for (std::uint64_t l = 0; l < kLines; ++l) {
            bool any = false, all = true;
            for (std::uint64_t i = 0; i < kLine; ++i) {
                const std::uint8_t d = pool.loadDurable<std::uint8_t>(
                    heap.offset + l * kLine + i);
                if (d == img[l * kLine + i])
                    any = true;
                else
                    all = false;
            }
            EXPECT_EQ(any, all) << "torn inside line " << l
                                << " at seed " << seed;
            survived += all ? 1 : 0;
        }
        EXPECT_EQ(pool.stats().crash_survivors, survived);
    }
}

TEST(PmPool, DomainSwitchMidstream)
{
    PmPool pool(4096, PersistDomain::LlcVolatile);
    const std::uint64_t v = 3;
    pool.deviceWrite(1, 0, &v, 8);
    EXPECT_FALSE(pool.persistOwner(1));
    pool.setDomain(PersistDomain::McDurable);  // gpm_persist_begin
    pool.deviceWrite(1, 8, &v, 8);
    EXPECT_TRUE(pool.persistOwner(1));
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(8), 3u);
    // The pre-switch write was drained by the same fence (it was
    // still pending under this owner).
    EXPECT_EQ(pool.loadDurable<std::uint64_t>(0), 3u);
}

/**
 * Reference model of PmPool's image semantics whose crash resets the
 * visible image with a copy of the whole durable image. It keeps the
 * pool's pending-extent coalescing and crash-time line enumeration, so
 * both draw the same survivor lottery from the same seed.
 */
class FullCopyPool
{
  public:
    FullCopyPool(std::size_t capacity, PersistDomain domain,
                 std::uint64_t seed)
        : visible(capacity, 0), durable(capacity, 0), domain(domain),
          rng(seed)
    {
    }

    void
    write(OwnerId owner, std::uint64_t addr, const std::uint8_t *src,
          std::uint64_t size)
    {
        std::copy(src, src + size, visible.begin() + addr);
        if (domain == PersistDomain::LlcDurable) {
            std::copy(src, src + size, durable.begin() + addr);
            return;
        }
        std::vector<Extent> &pend = pending[owner];
        if (!pend.empty()) {
            Extent &last = pend.back();
            if (addr <= last.addr + last.size &&
                addr + size >= last.addr) {
                const std::uint64_t hi =
                    std::max(last.addr + last.size, addr + size);
                last.addr = std::min(last.addr, addr);
                last.size = hi - last.addr;
                return;
            }
        }
        pend.push_back({addr, size});
    }

    void
    persistOwner(OwnerId owner)
    {
        if (domain != PersistDomain::McDurable)
            return;
        for (const Extent &e : pending[owner])
            drain(e);
        pending.erase(owner);
    }

    void
    persistRange(std::uint64_t addr, std::uint64_t size)
    {
        for (auto &[owner, extents] : pending) {
            std::vector<Extent> kept;
            for (const Extent &e : extents) {
                if (e.addr < addr + size && e.addr + e.size > addr)
                    drain(e);
                else
                    kept.push_back(e);
            }
            extents = kept;
        }
    }

    void
    persistAll()
    {
        for (const auto &[owner, extents] : pending)
            for (const Extent &e : extents)
                drain(e);
        pending.clear();
    }

    void
    crash(double p)
    {
        if (domain == PersistDomain::LlcDurable) {
            persistAll();
        } else {
            for (const auto &[owner, extents] : pending) {
                for (const Extent &e : extents) {
                    const std::uint64_t end = e.addr + e.size;
                    for (std::uint64_t lo =
                             alignDown(e.addr, PmPool::kCrashLineBytes);
                         lo < end; lo += PmPool::kCrashLineBytes) {
                        const std::uint64_t a = std::max(lo, e.addr);
                        const std::uint64_t b =
                            std::min(lo + PmPool::kCrashLineBytes, end);
                        if (p > 0.0 && rng.chance(p))
                            drain({a, b - a});
                    }
                }
            }
            pending.clear();
        }
        visible = durable;
    }

    std::vector<std::uint8_t> visible, durable;
    PersistDomain domain;

  private:
    struct Extent {
        std::uint64_t addr, size;
    };

    void
    drain(const Extent &e)
    {
        std::copy(visible.begin() + e.addr,
                  visible.begin() + e.addr + e.size,
                  durable.begin() + e.addr);
    }

    // Empty owner vectors left by persistRange are harmless here: the
    // pool erases them, and an empty vector adds no line to the draw.
    std::map<OwnerId, std::vector<Extent>> pending;
    Rng rng;
};

bool
sameImage(const std::uint8_t *a, const std::vector<std::uint8_t> &b)
{
    return std::memcmp(a, b.data(), b.size()) == 0;
}

TEST(PmPool, PendingExtentRestoreMatchesFullImageCopy)
{
    // Random op streams on a small pool, so stores from several owners
    // overlap, abut and rewrite each other, under every domain. After
    // each crash the pool's extent-only restore must leave exactly the
    // images the whole-image copy leaves.
    constexpr std::size_t kCap = 8_KiB;
    constexpr PersistDomain kDomains[] = {PersistDomain::McDurable,
                                          PersistDomain::LlcVolatile,
                                          PersistDomain::LlcDurable};
    constexpr double kProbs[] = {0.0, 0.5, 1.0};
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        PmPool pool(kCap, PersistDomain::McDurable, seed);
        FullCopyPool ref(kCap, PersistDomain::McDurable, seed);
        Rng ops(seed * 7919);
        std::vector<std::uint8_t> buf(512);
        std::uint64_t crashes = 0;
        for (int step = 0; step < 400; ++step) {
            const std::uint64_t op = ops.below(100);
            if (op < 60) {
                const OwnerId owner = ops.below(4);
                const bool cpu = ops.chance(0.3);
                const std::uint64_t size = 1 + ops.below(buf.size());
                // Mostly a narrow hot window, so ranges collide.
                const std::uint64_t span = ops.chance(0.8) ? 2048 : kCap;
                const std::uint64_t addr = ops.below(span - size + 1);
                for (std::uint8_t &b : buf)
                    b = static_cast<std::uint8_t>(ops.next());
                if (cpu)
                    pool.cpuWrite(owner, addr, buf.data(), size);
                else
                    pool.deviceWrite(owner, addr, buf.data(), size);
                ref.write(cpu ? kCpuOwnerBase | owner : owner, addr,
                          buf.data(), size);
            } else if (op < 70) {
                const OwnerId owner = ops.below(4);
                pool.persistOwner(owner);
                ref.persistOwner(owner);
            } else if (op < 76) {
                const std::uint64_t size = 1 + ops.below(1024);
                const std::uint64_t addr = ops.below(kCap - size + 1);
                pool.persistRange(addr, size);
                ref.persistRange(addr, size);
            } else if (op < 78) {
                pool.persistAll();
                ref.persistAll();
            } else if (op < 90) {
                const PersistDomain d = kDomains[ops.below(3)];
                pool.setDomain(d);
                ref.domain = d;
            } else {
                const double p = kProbs[ops.below(3)];
                pool.crash(p);
                ref.crash(p);
                ++crashes;
                ASSERT_EQ(std::memcmp(pool.visible(), pool.durable(), kCap),
                          0)
                    << "seed " << seed << " step " << step;
                ASSERT_EQ(pool.pendingExtents(), 0u);
            }
            ASSERT_TRUE(sameImage(pool.visible(), ref.visible))
                << "seed " << seed << " step " << step;
            ASSERT_TRUE(sameImage(pool.durable(), ref.durable))
                << "seed " << seed << " step " << step;
        }
        EXPECT_EQ(pool.stats().crashes, crashes);
    }
}

TEST(PmPool, EadrStoreOverPendingExtentRestoresExactly)
{
    // A McDurable extent stays pending while an eADR store lands
    // inside it: the eADR bytes are durable, the rest of the extent is
    // not. Whatever survives, the crash leaves visible == durable.
    constexpr std::uint64_t kCap = 4096;
    for (const double p : {0.0, 1.0}) {
        PmPool pool(kCap, PersistDomain::McDurable);
        std::uint8_t a[256], b[64];
        std::memset(a, 0xaa, sizeof a);
        std::memset(b, 0xbb, sizeof b);
        pool.deviceWrite(1, 0, a, sizeof a);
        pool.setDomain(PersistDomain::LlcDurable);
        pool.deviceWrite(2, 64, b, sizeof b);
        pool.setDomain(PersistDomain::McDurable);
        EXPECT_EQ(pool.pendingBytes(), 256u);

        pool.crash(p);
        EXPECT_EQ(std::memcmp(pool.visible(), pool.durable(), kCap), 0);
        EXPECT_EQ(pool.loadDurable<std::uint8_t>(64), 0xbbu);
        EXPECT_EQ(pool.loadDurable<std::uint8_t>(127), 0xbbu);
        const std::uint8_t rest = p == 1.0 ? 0xaa : 0x00;
        EXPECT_EQ(pool.loadDurable<std::uint8_t>(0), rest);
        EXPECT_EQ(pool.loadDurable<std::uint8_t>(128), rest);
        EXPECT_EQ(pool.loadDurable<std::uint8_t>(255), rest);
        EXPECT_EQ(pool.loadDurable<std::uint8_t>(256), 0x00u);
    }
}

TEST(PmPool, CrashRestoresOnlyPendingBytes)
{
    telemetry::ScopedSession session;
    PmPool pool(64_KiB, PersistDomain::McDurable, 3);
    std::uint8_t buf[300] = {};
    pool.deviceWrite(0, 0, buf, 100);
    pool.deviceWrite(0, 100, buf, 200);   // abuts: one extent
    pool.deviceWrite(1, 50, buf, 300);    // overlaps owner 0's
    pool.cpuWrite(0, 40000, buf, 17);
    pool.persistOwner(1);
    pool.deviceWrite(1, 9000, buf, 8);
    const std::uint64_t pending = pool.pendingBytes();
    EXPECT_EQ(pending, 300u + 17u + 8u);
    pool.crash(0.5);
    EXPECT_EQ(pool.stats().crash_restored_bytes, pending);

    // eADR: the drain leaves the images equal, so nothing is restored.
    pool.deviceWrite(0, 0, buf, 64);
    pool.setDomain(PersistDomain::LlcDurable);
    pool.deviceWrite(0, 4096, buf, 64);
    EXPECT_EQ(pool.pendingBytes(), 64u);
    pool.crash(0.5);
    EXPECT_EQ(pool.stats().crash_restored_bytes, pending);
    EXPECT_EQ(pool.stats().crashes, 2u);

    // The same figures reach the telemetry counter and crash spans.
    EXPECT_EQ(session->metrics.snapshot().counter(
                  "pool.crash_restored_bytes"),
              pending);
    std::vector<std::string> args;
    for (const telemetry::TraceEvent &ev : session->trace.collect())
        if (std::strcmp(ev.cat, "crash") == 0)
            args.push_back(ev.args);
    ASSERT_EQ(args.size(), 2u);
    EXPECT_NE(args[0].find("\"restored_bytes\": " +
                           std::to_string(pending)),
              std::string::npos)
        << args[0];
    EXPECT_NE(args[1].find("\"restored_bytes\": 0"), std::string::npos)
        << args[1];
}

} // namespace
} // namespace gpm
