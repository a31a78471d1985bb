/**
 * @file
 * Crash-consistent simulated persistent-memory device.
 *
 * PmPool is the functional heart of the reproduction: it holds two
 * images of the PM contents —
 *
 *   - the *visible* image: what loads observe while the system runs
 *     (writes are immediately visible, UVA-style, regardless of
 *     durability), and
 *   - the *durable* image: what survives a crash.
 *
 * A store moves from visible-only to durable according to the machine's
 * PersistDomain (see sim_config.hpp):
 *
 *   - McDurable (GPM, DDIO off): device stores are pending until the
 *     issuing owner executes a system-scope fence (persistOwner).
 *   - LlcVolatile (DDIO on): device stores are pending until a CPU
 *     thread flushes their address range (persistRange); a device
 *     fence orders but does NOT persist — exactly the trap GPM-NDP
 *     and naive UVA writes fall into.
 *   - LlcDurable (eADR): stores are durable on arrival.
 *
 * crash() models a power failure: every still-pending extent is either
 * dropped or — with a caller-chosen probability — retained, modelling
 * cache lines that happened to be evicted to the media before the
 * failure. Arbitrary subsets of unpersisted writes surviving is the
 * adversarial reordering that undo logging must tolerate; recovery
 * tests sweep many eviction seeds (the NVBitFI analog of section 6.2).
 */
#pragma once

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "common/units.hpp"
#include "memsim/sim_config.hpp"

namespace gpm {

class PmEventRecorder;

/**
 * Zero-initialized byte image backed by calloc.
 *
 * Pools are allocated at full testbed capacity per Machine but most
 * workloads touch a fraction of it. Above glibc's mmap threshold
 * calloc maps fresh pages, so untouched pages never fault. Below it
 * (an 8 MiB torture pool once glibc's dynamic threshold has grown
 * past it, or under a raised M_MMAP_THRESHOLD) calloc recycles a heap
 * chunk and memsets all of it, so construction is O(capacity) there.
 * Nothing after construction is: the image is move-only, and a crash
 * restores only the pending extents (see PmPool::crash).
 */
class PmImage
{
  public:
    explicit PmImage(std::size_t n)
        : data_(static_cast<std::uint8_t *>(std::calloc(n ? n : 1, 1))),
          size_(n)
    {
        GPM_REQUIRE(data_ != nullptr, "PM image allocation of ", n,
                    " bytes failed");
    }

    PmImage(const PmImage &) = delete;
    PmImage &operator=(const PmImage &) = delete;

    PmImage(PmImage &&o) noexcept : data_(o.data_), size_(o.size_)
    {
        o.data_ = nullptr;
        o.size_ = 0;
    }

    PmImage &
    operator=(PmImage &&o) noexcept
    {
        std::swap(data_, o.data_);
        std::swap(size_, o.size_);
        return *this;
    }

    ~PmImage() { std::free(data_); }

    std::uint8_t *data() { return data_; }
    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    std::uint8_t *data_;
    std::size_t size_;
};

/** Identity of a writer for fence scoping (GPU thread / CPU thread). */
using OwnerId = std::uint64_t;

/** Owner namespace tag for CPU threads (GPU owners count from zero). */
constexpr OwnerId kCpuOwnerBase = OwnerId(1) << 62;

/** A named allocation inside the pool (the gpm_map unit). */
struct PmRegion {
    std::uint64_t offset = 0;  ///< byte offset of the region in the pool
    std::uint64_t size = 0;    ///< region size in bytes
};

/**
 * Lifetime counters for crash/persist activity. The torture runner
 * asserts on these after each scenario: exactly one crash happened,
 * zero-probability crashes produced zero survivors, and eADR crashes
 * never reached the probabilistic tearing path at all.
 */
struct PmPoolStats {
    std::uint64_t crashes = 0;           ///< crash() invocations
    std::uint64_t extents_drained = 0;   ///< extents copied to durable
    std::uint64_t crash_sub_extents = 0; ///< 128 B lines rolled at crash
    std::uint64_t crash_survivors = 0;   ///< lines that won the roll
    std::uint64_t extents_merged = 0;    ///< appends coalesced into the
                                         ///< owner's previous extent
    std::uint64_t crash_restored_bytes = 0; ///< visible bytes reset to
                                            ///< durable at crash
};

/** Simulated byte-addressable persistent memory with crash semantics. */
class PmPool
{
  public:
    /**
     * @param capacity  Pool size in bytes.
     * @param domain    Where the persistence-domain boundary sits.
     * @param seed      Seed for crash-time partial-eviction decisions.
     */
    PmPool(std::size_t capacity, PersistDomain domain,
           std::uint64_t seed = 1);

    std::size_t capacity() const { return visible_.size(); }
    PersistDomain domain() const { return domain_; }

    /** Change the persistence domain (gpm_persist_begin/end toggling). */
    void setDomain(PersistDomain d);

    // ---- persistency event stream (gpmcheck) ---------------------------

    /**
     * Attach (or detach, with nullptr) a persistency event recorder.
     * Every durability-relevant pool action is then recorded with its
     * current-domain context; the default null pointer keeps the hot
     * paths at a single pointer test (telemetry-style disabled path).
     * The recorder must outlive the pool or be detached first.
     */
    void setRecorder(PmEventRecorder *rec);

    /** The attached recorder, or nullptr. */
    PmEventRecorder *recorder() const { return recorder_; }

    // ---- region registry (gpm_map substrate) ---------------------------

    /**
     * Map a named region, creating it when @p create is true.
     *
     * Creation bump-allocates @p size bytes at 256 B alignment; opening
     * an existing region returns its recorded placement and requires
     * @p size to be zero or to match.
     */
    PmRegion map(const std::string &name, std::uint64_t size, bool create);

    /** True when a region of this name exists. */
    bool hasRegion(const std::string &name) const;

    /** Look up an existing region; fatal() when absent. */
    PmRegion region(const std::string &name) const;

    // ---- data path -------------------------------------------------------

    /** Store from a device (GPU) context. Visible at once; durability
     *  follows the persistence domain. */
    void deviceWrite(OwnerId owner, std::uint64_t addr, const void *src,
                     std::uint64_t size);

    /** Store from a CPU context (CAP paths). Pending until flushed,
     *  or durable immediately under eADR. */
    void cpuWrite(OwnerId owner, std::uint64_t addr, const void *src,
                  std::uint64_t size);

    /** Load from the visible image. */
    void read(std::uint64_t addr, void *dst, std::uint64_t size) const;

    /** Typed convenience load from the visible image. */
    template <typename T>
    T
    load(std::uint64_t addr) const
    {
        T v;
        read(addr, &v, sizeof(T));
        return v;
    }

    /** Typed convenience device store. */
    template <typename T>
    void
    storeDevice(OwnerId owner, std::uint64_t addr, const T &v)
    {
        deviceWrite(owner, addr, &v, sizeof(T));
    }

    // ---- persistence ------------------------------------------------------

    /**
     * System-scope fence semantics for @p owner's pending stores.
     *
     * Under McDurable this is a persist (GPM's gpm_persist); under
     * LlcVolatile it only orders (returns false so callers can detect
     * that durability was NOT achieved); under LlcDurable stores were
     * already durable.
     *
     * @return true when the owner's stores are durable after the call.
     */
    bool persistOwner(OwnerId owner);

    /** CPU flush path: persist all pending stores overlapping
     *  [addr, addr+size), regardless of owner (CLFLUSHOPT semantics). */
    void persistRange(std::uint64_t addr, std::uint64_t size);

    /** Persist everything pending (e.g. an orderly shutdown). */
    void persistAll();

    // ---- crash ------------------------------------------------------------

    /**
     * Power failure: every pending extent is first split at 128 B
     * cache-line boundaries and each sub-extent independently survives
     * with probability @p survive_prob (natural eviction before the
     * crash); everything else is lost and the visible image is reset
     * to the durable image, i.e. the post-reboot state.
     *
     * The reset costs O(dirty), not O(capacity): visible and durable
     * can differ only inside pending extents (a non-eADR store always
     * records one, an eADR store writes both images, and a drain
     * copies visible to durable), so only those ranges are copied
     * back. The count lands in PmPoolStats::crash_restored_bytes.
     *
     * Line granularity matters: a multi-chunk HCL entry or a 60 B row
     * straddling a line can be *torn* — partially durable — which is
     * precisely the adversarial state undo-log recovery must tolerate.
     * Per-extent survival could never produce it.
     *
     * Under LlcDurable (eADR) all pending extents drain — that is the
     * hardware guarantee — which leaves the two images equal, so
     * nothing is restored.
     */
    void crash(double survive_prob = 0.0);

    /** Crash-granularity: survival is decided per this many bytes. */
    static constexpr std::uint64_t kCrashLineBytes = 128;

    /** Number of pending (visible but not durable) extents. */
    std::size_t pendingExtents() const;

    /** Pending bytes (sum of extent sizes). Stores that abut or
     *  overlap the owner's most recent extent coalesce on append, so
     *  a contiguous or repeatedly-rewritten stream never
     *  double-counts; only a re-touch of an *older* extent still can. */
    std::uint64_t pendingBytes() const;

    /** Lifetime crash/persist counters (see PmPoolStats). */
    const PmPoolStats &stats() const { return stats_; }

    // ---- inspection & file backing ------------------------------------

    /** Durable image base (tests inspect what a crash would preserve). */
    const std::uint8_t *durable() const { return durable_.data(); }

    /** Visible image base. */
    const std::uint8_t *visible() const { return visible_.data(); }

    /** Typed load from the durable image (test helper). */
    template <typename T>
    T
    loadDurable(std::uint64_t addr) const
    {
        GPM_REQUIRE(addr + sizeof(T) <= durable_.size(),
                    "durable load out of range");
        T v;
        std::memcpy(&v, durable_.data() + addr, sizeof(T));
        return v;
    }

    /** Serialize the durable image + region table to @p path. */
    void saveDurable(const std::string &path) const;

    /** Restore a pool previously saved with saveDurable. */
    static PmPool loadDurable(const std::string &path,
                              PersistDomain domain,
                              std::uint64_t seed = 1);

  private:
    struct Extent {
        std::uint64_t addr;
        std::uint64_t size;
    };

    void checkRange(std::uint64_t addr, std::uint64_t size) const;
    void writeCommon(OwnerId owner, std::uint64_t addr, const void *src,
                     std::uint64_t size);
    void drain(const Extent &e);

    PmImage visible_;
    PmImage durable_;
    PmEventRecorder *recorder_ = nullptr;
    // std::map for deterministic crash-survival iteration order.
    std::map<OwnerId, std::vector<Extent>> pending_;
    std::map<std::string, PmRegion> regions_;
    std::uint64_t alloc_cursor_ = 0;
    PersistDomain domain_;
    Rng rng_;
    PmPoolStats stats_;
};

} // namespace gpm
