/**
 * @file
 * Deterministic scenario-parallel sweep engine.
 *
 * The paper's central lever is parallelism that hides persist latency
 * (section 4); the reproduction's own dominant wall-clock paths are
 * one level up — thousand-cell sweeps (the crash-torture matrix, the
 * Figure 9/10 grids) where every cell constructs a
 * private Machine + PmPool world and shares nothing. This engine
 * farms those cells across host threads while keeping every report
 * bit-identical to the sequential sweep:
 *
 *  - a persistent worker pool shared by every sweep() in the process
 *    (workers park between sweeps; the pool grows to the widest
 *    request and is joined at exit),
 *  - an atomic index queue: workers claim the next unclaimed item, so
 *    load balance is dynamic and no item is ever run twice,
 *  - canonical-order result slots: item i's result lands in
 *    results[i] whatever thread ran it and whenever it finished, so a
 *    downstream reduction (report rows, FNV signatures, float sums)
 *    visits results in the same order at any worker count,
 *  - per-worker telemetry shards: SweepLane::count() accumulates into
 *    a plain per-worker buffer, folded into the installed telemetry
 *    session once at the sweep boundary — no registry contention on
 *    the sweep hot path,
 *  - two error policies: FailFast (first exception aborts remaining
 *    claims and rethrows on the caller) and CollectAll (exceptions
 *    are recorded per item, index-ordered, and the sweep finishes).
 *
 * Determinism argument: a sweep item must own its world (construct
 * its own Machine/PmPool/workload, touch no shared mutable state
 * beyond the engine's own slots). Then any assignment of items to
 * threads produces the same per-item results, and canonical-order
 * slots make every reduction order-independent of the schedule.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gpm {

/** How a sweep reacts to an item throwing. */
struct SweepOptions {
    /** Worker threads including the caller; 0 = one per hardware
     *  thread, 1 = run inline on the caller (the sequential
     *  reference). Clamped to the item count. */
    int workers = 1;

    enum class OnError {
        FailFast,   ///< abort remaining claims, rethrow first error
        CollectAll, ///< record errors per item, finish the sweep
    };
    OnError on_error = OnError::FailFast;
};

/** One item's failure under SweepOptions::OnError::CollectAll. */
struct SweepError {
    std::size_t index = 0;  ///< the item that threw
    std::string what;       ///< exception message
};

namespace detail {
struct SweepAccess;
} // namespace detail

/**
 * Per-worker context handed to every item. Counter bumps accumulate
 * in a worker-private shard and fold into the installed telemetry
 * session (if any) exactly once, at the sweep boundary.
 */
class SweepLane
{
  public:
    /** Worker index in [0, workers); 0 is the calling thread. */
    unsigned worker() const { return worker_; }

    /** Shard-buffered counter bump (no-op when telemetry is off). */
    void count(std::string_view name, std::uint64_t n = 1);

  private:
    friend struct detail::SweepAccess;

    explicit SweepLane(unsigned worker, bool telemetry_on)
        : worker_(worker), telemetry_on_(telemetry_on)
    {
    }

    /** Fold the shard into the session registry and clear it. */
    void fold();

    unsigned worker_;
    bool telemetry_on_;
    std::vector<std::pair<std::string, std::uint64_t>> counts_;
};

namespace detail {

/**
 * Type-erased driver: run fn(lane, i) for every i in [0, n) across
 * the process-wide worker pool. Returns the index-ordered error list
 * (CollectAll) or throws the first error (FailFast).
 */
std::vector<SweepError> sweepIndices(
    std::size_t n, const std::function<void(SweepLane &, std::size_t)> &fn,
    const SweepOptions &opt);

} // namespace detail

/**
 * Sweep [0, n): results[i] = fn(lane, i), canonical order.
 *
 * Under CollectAll a failed item leaves a default-constructed R in
 * its slot and an entry in @p errors (index-ordered); pass nullptr
 * to drop the list (slots still default-construct).
 */
template <typename Fn>
auto
sweep(std::size_t n, Fn &&fn, const SweepOptions &opt = {},
      std::vector<SweepError> *errors = nullptr)
    -> std::vector<decltype(fn(std::declval<SweepLane &>(),
                               std::size_t(0)))>
{
    using R = decltype(fn(std::declval<SweepLane &>(), std::size_t(0)));
    std::vector<R> results(n);
    std::vector<SweepError> errs = detail::sweepIndices(
        n,
        [&](SweepLane &lane, std::size_t i) { results[i] = fn(lane, i); },
        opt);
    if (errors != nullptr)
        *errors = std::move(errs);
    return results;
}

/**
 * Sweep a pre-enumerated item vector: results[i] = fn(lane, items[i]).
 * The canonical result order is the item order, regardless of which
 * worker ran which item or in what order they completed.
 */
template <typename T, typename Fn>
auto
sweep(const std::vector<T> &items, Fn &&fn, const SweepOptions &opt = {},
      std::vector<SweepError> *errors = nullptr)
    -> std::vector<decltype(fn(std::declval<SweepLane &>(), items[0]))>
{
    return sweep(
        items.size(),
        [&](SweepLane &lane, std::size_t i) { return fn(lane, items[i]); },
        opt, errors);
}

} // namespace gpm
