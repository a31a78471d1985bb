/**
 * @file
 * perfbench — the repository's benchmark driver: three workloads that
 * time the simulator's host clock and guard its simulated clock.
 *
 *     perfbench --workload figure-grid|crash-recovery|serve-mix
 *               --seed N --seconds S --trace 0|1
 *
 * A run repeats whole *rounds* of the workload's operations until
 * --seconds have passed (at least two rounds). Every round builds
 * what its calls consume (machines, invariants, engines) and performs
 * the same operations on the same seed-derived inputs, so:
 *
 *  - host timings are taken per operation as the median across
 *    rounds, which keeps the percentile ranks independent of how many
 *    rounds fit into the run, and set-up time as the sum of each
 *    set-up step's median across rounds;
 *  - the deterministic simulated statistics of every round must be
 *    bit-identical (the in-process half of the simulated-statistics
 *    guard).
 *
 * --trace 0 prints the end-to-end metrics. --trace 1 follows the
 * untraced rounds with two traced ones, each operation under a fresh
 * telemetry::ScopedSession plus the benchmark's own spans around the
 * public calls, derives per-layer self times from the span tree, and
 * prints the per-layer metrics; the traced rounds' simulated
 * statistics must equal the untraced rounds'.
 *
 * All simulation runs on the calling thread: sweep width 1 and
 * exec_workers 1 everywhere. The last line of stdout is one JSON
 * object {"correct", "attempted", "failed", "metrics"}; the lines
 * before it are the readable report ("sim ..." lines hold the
 * simulated statistics, "check ..." lines the correctness checks).
 */
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "crashtest/torture_runner.hpp"
#include "harness/experiments.hpp"
#include "memsim/media_backend.hpp"
#include "service/serve_engine.hpp"
#include "telemetry/telemetry.hpp"

using namespace gpm;
using namespace gpm::bench;

namespace {

using Clock = std::chrono::steady_clock;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Exact decimal rendering of a double (round-trips bit for bit). */
std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** SplitMix64 finalizer: derives independent input seeds. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** The highest order statistic with at least ten values above it. */
double
tailOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() - 11];
}

/** Deterministic simulated statistics of one round, in print order. */
using SimStats = std::vector<std::pair<std::string, std::string>>;

// ---- tracing: per-operation sessions folded into layer totals -------

/** Name of the benchmark's span around one timed public call. */
constexpr const char *kCallSpan = "call";

/** Layer totals accumulated over traced rounds. */
struct LayerAccum {
    std::map<std::string, double> self_ms;   ///< by span category
    std::map<std::string, double> total_ms;  ///< by span category
    std::map<std::string, double> spans;     ///< span count by category
    std::map<std::string, double> counters;  ///< summed
    double root_ms = 0.0;            ///< union of top-level spans
    double call_ms = 0.0;            ///< the benchmark's call spans
    double launch_in_call_ms = 0.0;  ///< launch spans under a call
    double cap_call_ms = 0.0;        ///< call spans on CAP platforms
    // From the reports of the benchmark's own ServiceEngine::run calls.
    double serve_batches = 0.0;
    double serve_batched_ops = 0.0;
    double serve_deferred = 0.0;
    double serve_blocked = 0.0;

    /**
     * Fold one session: counters are summed; spans are arranged into
     * their tree (one thread, so containment is nesting) and each
     * span's self time is its duration minus its children's.
     */
    void
    fold(telemetry::Session &s, bool cap_call)
    {
        for (const auto &[name, v] : s.metrics.snapshot().counters)
            counters[name] += double(v);
        std::vector<telemetry::TraceEvent> ev = s.trace.collect();
        std::erase_if(ev, [](const telemetry::TraceEvent &e) {
            return e.ph != 'X';
        });
        std::sort(ev.begin(), ev.end(),
                  [](const telemetry::TraceEvent &a,
                     const telemetry::TraceEvent &b) {
                      return a.ts_us != b.ts_us ? a.ts_us < b.ts_us
                                                : a.dur_us > b.dur_us;
                  });
        struct Open {
            double end_us;
            std::size_t idx;
            bool in_call;
        };
        std::vector<Open> stack;
        std::vector<double> child_us(ev.size(), 0.0);
        for (std::size_t i = 0; i < ev.size(); ++i) {
            const telemetry::TraceEvent &e = ev[i];
            while (!stack.empty() && stack.back().end_us <= e.ts_us)
                stack.pop_back();
            const bool under_call = !stack.empty() && stack.back().in_call;
            if (stack.empty())
                root_ms += e.dur_us / 1e3;
            else
                child_us[stack.back().idx] += e.dur_us;
            const bool is_call = e.name == kCallSpan;
            if (is_call) {
                call_ms += e.dur_us / 1e3;
                if (cap_call)
                    cap_call_ms += e.dur_us / 1e3;
            }
            if (under_call && std::strcmp(e.cat, "launch") == 0)
                launch_in_call_ms += e.dur_us / 1e3;
            stack.push_back({e.ts_us + e.dur_us, i, under_call || is_call});
        }
        for (std::size_t i = 0; i < ev.size(); ++i) {
            const std::string cat = ev[i].cat;
            total_ms[cat] += ev[i].dur_us / 1e3;
            self_ms[cat] += std::max(0.0, ev[i].dur_us - child_us[i]) / 1e3;
            spans[cat] += 1;
        }
    }

    /** Add another accumulator's totals to this one. */
    void
    merge(const LayerAccum &o)
    {
        for (const auto &[k, v] : o.self_ms)
            self_ms[k] += v;
        for (const auto &[k, v] : o.total_ms)
            total_ms[k] += v;
        for (const auto &[k, v] : o.spans)
            spans[k] += v;
        for (const auto &[k, v] : o.counters)
            counters[k] += v;
        root_ms += o.root_ms;
        call_ms += o.call_ms;
        launch_in_call_ms += o.launch_in_call_ms;
        cap_call_ms += o.cap_call_ms;
        serve_batches += o.serve_batches;
        serve_batched_ops += o.serve_batched_ops;
        serve_deferred += o.serve_deferred;
        serve_blocked += o.serve_blocked;
    }

    static double
    get(const std::map<std::string, double> &m, const char *key)
    {
        const auto it = m.find(key);
        return it == m.end() ? 0.0 : it->second;
    }

    double self(const char *cat) const { return get(self_ms, cat); }
    double total(const char *cat) const { return get(total_ms, cat); }
    double count(const char *name) const { return get(counters, name); }
};

/**
 * One operation's telemetry scope. With a null accumulator it does
 * nothing (untraced rounds); otherwise it installs a fresh session
 * for the operation and folds it on finish(), so a traced round never
 * holds more than one operation's trace in memory.
 */
class OpTrace
{
  public:
    explicit OpTrace(LayerAccum *acc) : acc_(acc)
    {
        if (acc_)
            session_.emplace();
    }

    void
    finish(bool cap_call = false)
    {
        if (acc_)
            acc_->fold(**session_, cap_call);
        session_.reset();
    }

  private:
    LayerAccum *acc_;
    std::optional<telemetry::ScopedSession> session_;
};

// ---- the workload interface -------------------------------------------

/** What one round of a workload did. */
struct Round {
    double wall_s = 0.0;
    std::vector<double> setup_ms;  ///< one per set-up step, round order
    std::vector<double> call_ms;   ///< one per operation, round order
    std::vector<std::string> ops;  ///< operation names, round order
    std::uint64_t units = 0;       ///< cells / scenarios / acked requests
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    SimStats sim;
    std::vector<std::string> violations;  ///< failed correctness checks
    std::vector<std::string> failures;    ///< why each failed op failed
};

/** Record a correctness check's outcome in @p r. */
void
check(Round &r, bool ok, const std::string &what)
{
    if (!ok)
        r.violations.push_back(what);
}

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Run one round; a non-null @p acc traces it. */
    virtual Round round(LayerAccum *acc) = 0;

    /** Checks made once, after the timed rounds. */
    virtual void finalChecks(std::vector<std::string> &) {}
};

// ---- figure-grid ------------------------------------------------------

/**
 * Input seed of an app for benchmark seed @p seed: seed 1 keeps the
 * canonical parameter set's own seed, so seed 1 is runBench's input.
 */
std::uint64_t
inputSeed(std::uint64_t canonical, std::uint64_t seed)
{
    return canonical + (seed - 1) * 0x9e3779b97f4a7c15ull;
}

/**
 * The body of bench::runBench on a caller-built machine, with each
 * canonical parameter set's input seed derived from the benchmark
 * seed. runBench builds its Machine inside the call and fixes the
 * input seeds; building the machine outside makes it measurable as
 * set-up, and the seed makes the inputs the benchmark's own.
 */
WorkloadResult
runApp(Bench b, Machine &m, std::uint64_t seed)
{
    const auto seeded = [&](auto p) {
        p.seed = inputSeed(p.seed, seed);
        return p;
    };
    switch (b) {
      case Bench::Kvs:
        return GpKvs(m, seeded(kvsParams())).run();
      case Bench::Kvs95:
        return GpKvs(m, seeded(kvs95Params())).run();
      case Bench::DbInsert:
        return GpDb(m, seeded(dbParams())).run(GpDb::TxnKind::Insert);
      case Bench::DbUpdate:
        return GpDb(m, seeded(dbParams())).run(GpDb::TxnKind::Update);
      case Bench::Dnn:
        return DnnApp(seeded(dnnParams())).run(m, iterSchedule());
      case Bench::Cfd:
        return CfdApp(seeded(cfdParams())).run(m, iterSchedule());
      case Bench::Blk:
        return BlackScholesApp(seeded(blkParams())).run(m, iterSchedule());
      case Bench::Hotspot:
        return HotspotApp(seeded(hotspotParams())).run(m, iterSchedule());
      case Bench::Bfs:
        return GpBfs(m, seeded(bfsParams())).run();
      case Bench::Srad:
        return GpSrad(m, seeded(sradParams())).run();
      case Bench::PrefixSum:
        return GpPrefixSum(m, seeded(psParams())).run();
    }
    fatal("unknown bench");
}

/**
 * a <= b up to floating-point rounding. Equal modelled times can
 * differ in their last bits when two platforms sum the same terms in
 * another order (bfs reads one ulp slower on CAP-eADR than on CAP-mm).
 */
bool
noSlower(SimNs a, SimNs b)
{
    return a <= b * (1.0 + 1e-12);
}

bool
isCap(PlatformKind k)
{
    return k == PlatformKind::CapFs || k == PlatformKind::CapMm ||
           k == PlatformKind::CapEadr;
}

/** Every supported (app, platform) cell of Figures 9 and 10. */
class FigureGrid : public Workload
{
  public:
    explicit FigureGrid(std::uint64_t seed) : seed_(seed)
    {
        cfg_.exec_workers = 1;
        for (const Bench b : kAllBenches) {
            for (const PlatformKind k : kPlatforms)
                cells_.push_back({b, k});
            // The apps whose files fit GPUfs (Fig 9's fourth bar).
            if (b == Bench::Dnn || b == Bench::Cfd || b == Bench::Srad)
                cells_.push_back({b, PlatformKind::Gpufs});
        }
    }

    Round
    round(LayerAccum *acc) override
    {
        Round r;
        const Clock::time_point t0 = Clock::now();
        std::vector<WorkloadResult> res(cells_.size());
        NvmTierBytes tiers;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const Cell &c = cells_[i];
            OpTrace trace(acc);
            const Clock::time_point ts = Clock::now();
            std::unique_ptr<Machine> m;
            {
                telemetry::Span span("workloads", "setup");
                m = machine(c);
            }
            const Clock::time_point tc = Clock::now();
            r.setup_ms.push_back(msBetween(ts, tc));
            {
                // runBench's share after construction: the run and
                // the machine's teardown.
                telemetry::Span span("workloads", kCallSpan);
                res[i] = runApp(c.b, *m, seed_);
                m->nvm().closeRuns();
                const NvmTierBytes &b = m->nvm().bytes();
                tiers.seq_aligned += b.seq_aligned;
                tiers.seq_unaligned += b.seq_unaligned;
                tiers.random += b.random;
                m.reset();
            }
            r.call_ms.push_back(msBetween(tc, Clock::now()));
            trace.finish(isCap(c.kind));
            r.ops.push_back(name(c));
        }
        r.wall_s = msBetween(t0, Clock::now()) / 1e3;
        r.attempted = r.units = cells_.size();
        summarize(res, tiers, r);
        return r;
    }

    void
    finalChecks(std::vector<std::string> &out) override
    {
        // At seed 1 the split construction must reproduce runBench
        // field for field (one GPM and one CAP cell, the cheap ones).
        if (seed_ != 1)
            return;
        for (const Cell c : {Cell{Bench::Bfs, PlatformKind::Gpm},
                             Cell{Bench::Srad, PlatformKind::CapMm}}) {
            const WorkloadResult a = runApp(c.b, *machine(c), seed_);
            const WorkloadResult b = runBench(c.b, c.kind, cfg_, seed_);
            if (a.op_ns != b.op_ns || a.persist_ns != b.persist_ns ||
                a.persisted_payload != b.persisted_payload ||
                a.pcie_write_bytes != b.pcie_write_bytes ||
                a.verified != b.verified)
                out.push_back("cell " + name(c) +
                              " differs from bench::runBench at seed 1");
        }
    }

  private:
    struct Cell {
        Bench b;
        PlatformKind kind;
    };

    static constexpr PlatformKind kPlatforms[] = {
        PlatformKind::CapFs, PlatformKind::CapMm, PlatformKind::Gpm,
        PlatformKind::GpmEadr, PlatformKind::CapEadr,
    };

    static std::string
    name(const Cell &c)
    {
        return std::string(benchKey(c.b)) + "/" + platformKey(c.kind);
    }

    std::unique_ptr<Machine>
    machine(const Cell &c) const
    {
        return std::make_unique<Machine>(cfg_, c.kind, pmCapacity(), seed_);
    }

    void
    summarize(const std::vector<WorkloadResult> &res,
              const NvmTierBytes &tiers, Round &r) const
    {
        std::map<std::pair<Bench, PlatformKind>, const WorkloadResult *>
            by;
        std::uint64_t sig = kFnvOffset, pcie = 0;
        SimNs gpm_ns = 0;
        for (std::size_t i = 0; i < cells_.size(); ++i) {
            const Cell &c = cells_[i];
            const WorkloadResult &w = res[i];
            by[{c.b, c.kind}] = &w;
            if (!w.supported || !w.verified) {
                ++r.failed;
                r.failures.push_back("cell " + name(c) +
                                     (w.supported ? " not verified"
                                                  : " unsupported"));
            }
            for (const double v :
                 {w.op_ns, w.persist_ns, w.recovery_ns, w.ops_done})
                sig = fnv1aU64(std::bit_cast<std::uint64_t>(v), sig);
            sig = fnv1aU64(w.persisted_payload, sig);
            sig = fnv1aU64(w.pcie_write_bytes, sig);
            pcie += w.pcie_write_bytes;
            if (c.kind == PlatformKind::Gpm)
                gpm_ns += comparableNs(c.b, w);
            r.sim.push_back({"cell." + name(c),
                             exact(comparableNs(c.b, w)) + " ns, payload " +
                                 std::to_string(w.persisted_payload)});
        }
        r.sim.push_back({"grid.signature", hex64(sig)});
        r.sim.push_back({"sim_gpm_ms", exact(gpm_ns / 1e6)});
        r.sim.push_back({"machine.pcie_write_bytes", std::to_string(pcie)});
        r.sim.push_back({"memsim.seq_aligned_bytes",
                         std::to_string(tiers.seq_aligned)});
        r.sim.push_back({"memsim.seq_unaligned_bytes",
                         std::to_string(tiers.seq_unaligned)});
        r.sim.push_back({"memsim.random_bytes",
                         std::to_string(tiers.random)});

        // Fig 9 ordering, Fig 10 monotonicity, payload parity.
        for (const Bench b : kAllBenches) {
            const auto t = [&](PlatformKind k) {
                return comparableNs(b, *by.at({b, k}));
            };
            const auto payload = [&](PlatformKind k) {
                return by.at({b, k})->persisted_payload;
            };
            const std::string app = benchKey(b);
            check(r,
                  t(PlatformKind::Gpm) < t(PlatformKind::CapMm) &&
                      t(PlatformKind::CapMm) < t(PlatformKind::CapFs),
                  app + ": GPM < CAP-mm < CAP-fs does not hold");
            check(r, noSlower(t(PlatformKind::GpmEadr), t(PlatformKind::Gpm)),
                  app + ": GPM-eADR slower than GPM");
            check(r,
                  noSlower(t(PlatformKind::CapEadr), t(PlatformKind::CapMm)),
                  app + ": CAP-eADR slower than CAP-mm");
            check(r, payload(PlatformKind::Gpm) ==
                         payload(PlatformKind::GpmEadr),
                  app + ": GPM and GPM-eADR persist different payloads");
            check(r,
                  payload(PlatformKind::CapFs) ==
                          payload(PlatformKind::CapMm) &&
                      payload(PlatformKind::CapMm) ==
                          payload(PlatformKind::CapEadr),
                  app + ": CAP platforms persist different payloads");
        }
    }

    std::uint64_t seed_;
    SimConfig cfg_;
    std::vector<Cell> cells_;
};

// ---- crash-recovery ---------------------------------------------------

/** Crash-and-recover scenarios through crashtest's public entry points. */
class CrashRecovery : public Workload
{
  public:
    explicit CrashRecovery(std::uint64_t seed)
    {
        // Five eviction seeds; seed 1 gives the default axis {1..5},
        // so it reproduces gpmtorture's pinned default sweep.
        for (std::uint64_t k = 1; k <= 5; ++k)
            seeds_.push_back((seed - 1) * 5 + k);
    }

    Round
    round(LayerAccum *acc) override
    {
        Round r;
        const Clock::time_point t0 = Clock::now();
        Prepared p = prepare();
        r.setup_ms.push_back(msBetween(t0, Clock::now()));
        std::map<std::string, TortureReport> reports;
        for (std::size_t i = 0; i < p.scenarios.size(); ++i) {
            const TortureScenario &s = p.scenarios[i];
            TortureResult res;
            res.scenario = s;
            DomainSetup setup = domainSetupFor(s.domain);
            setup.exec_workers = 1;
            OpTrace trace(acc);
            const Clock::time_point tc = Clock::now();
            {
                telemetry::Span span("scenario", kCallSpan);
                res.outcome = p.invariants[i]->run(setup, p.points[i], s.seed,
                                                   s.survive_prob);
                classifyScenario(res);
            }
            r.call_ms.push_back(msBetween(tc, Clock::now()));
            trace.finish();
            p.invariants[i].reset();
            r.ops.push_back(res.key());
            judge(res, r);
            reports[s.workload].results.push_back(std::move(res));
        }
        r.wall_s = msBetween(t0, Clock::now()) / 1e3;
        r.attempted = r.units = p.scenarios.size();

        // The five default workloads in registry order are exactly
        // the default torture sweep, so its signature is comparable.
        TortureReport base;
        for (const std::string &w : registeredInvariants()) {
            const TortureReport &rep = reports.at(w);
            base.results.insert(base.results.end(), rep.results.begin(),
                                rep.results.end());
        }
        r.sim.push_back({"torture.default.signature",
                         hex64(base.signature())});
        for (const auto &[name, rep] : reports) {
            const std::array<std::size_t, 4> n = rep.classCounts();
            std::uint64_t torn = 0, survived = 0;
            for (const TortureResult &x : rep.results) {
                torn += x.outcome.crash_sub_extents;
                survived += x.outcome.crash_survivors;
            }
            char buf[160];
            std::snprintf(buf, sizeof buf,
                          "%s ok %zu ddio %zu not-fired %zu viol %zu "
                          "torn %" PRIu64 " survived %" PRIu64,
                          hex64(rep.signature()).c_str(), n[0], n[1],
                          n[2], n[3], torn, survived);
            r.sim.push_back({"torture." + name, buf});
        }
        return r;
    }

  private:
    /** A round's set-up: the scenarios, one adapter each and its
     *  materialized crash point (what the runner builds per cell). */
    struct Prepared {
        std::vector<TortureScenario> scenarios;
        std::vector<std::unique_ptr<RecoveryInvariant>> invariants;
        std::vector<CrashPoint> points;
    };

    Prepared
    prepare() const
    {
        Prepared p;
        for (const std::vector<std::string> &names :
             {registeredInvariants(), std::vector<std::string>{"pmheap"},
              std::vector<std::string>{"serve"}}) {
            TortureConfig cfg;
            cfg.workloads = names;
            cfg.seeds = seeds_;
            cfg.jobs = 1;
            cfg.exec_workers = 1;
            cfg.applyDefaults();
            for (TortureScenario &s : TortureRunner::enumerate(cfg))
                p.scenarios.push_back(std::move(s));
        }
        for (const TortureScenario &s : p.scenarios) {
            p.invariants.push_back(makeInvariant(s.workload));
            p.points.push_back(
                s.spec.materialize(p.invariants.back()->doomedThreadPhases()));
        }
        return p;
    }

    /**
     * Per-scenario properties, read from the outcome alone so that a
     * fault in classifyScenario cannot hide a broken scenario. A
     * violation or an exception is a failed operation.
     */
    static void
    judge(const TortureResult &res, Round &r)
    {
        const TortureOutcome &o = res.outcome;
        const std::string key = "scenario " + res.key();
        check(r,
              res.scenario.domain == PersistDomain::LlcVolatile ||
                  o.strict_ok,
              key + " fails the strict invariant in a durable domain");
        check(r, o.crashes == 1,
              key + " crashed the pool " + std::to_string(o.crashes) +
                  " times");
        check(r, res.scenario.survive_prob != 0.0 || o.crash_survivors == 0,
              key + " has survivors at survive probability 0");
        if (res.cls == OutcomeClass::Violation || !o.error.empty()) {
            ++r.failed;
            r.failures.push_back(key + ": " +
                                 (res.detail.empty() ? o.error : res.detail));
        }
    }

    std::vector<std::uint64_t> seeds_;
};

// ---- serve-mix --------------------------------------------------------

/** Closed-loop ServiceEngine traffic: three mixes on interleaved:8. */
class ServeMix : public Workload
{
  public:
    /** Engine runs per traffic per round, each on its own seed. */
    static constexpr int kRunsPerTraffic = 14;

    explicit ServeMix(std::uint64_t seed)
    {
        const std::optional<MediaConfig> media =
            parseMediaConfig("interleaved:8");
        GPM_REQUIRE(media.has_value(), "interleaved:8 must parse");
        for (int t = 0; t < 3; ++t) {
            for (int k = 0; k < kRunsPerTraffic; ++k) {
                ServeConfig c = traffic(t);
                c.media = *media;
                c.jobs = 1;
                c.exec_workers = 1;
                c.seed = mix64(seed * 64 + std::uint64_t(t) * 16 +
                               std::uint64_t(k));
                runs_.push_back({t, c});
            }
        }
    }

    Round
    round(LayerAccum *acc) override
    {
        Round r;
        const Clock::time_point t0 = Clock::now();
        telemetry::HistogramData zipf_latency;
        std::uint64_t acked = 0, sig = kFnvOffset;
        SimNs makespan = 0;
        for (const Run &run : runs_) {
            OpTrace trace(acc);
            const Clock::time_point ts = Clock::now();
            std::unique_ptr<ServiceEngine> engine;
            {
                telemetry::Span span("service", "setup");
                engine = std::make_unique<ServiceEngine>(run.cfg);
            }
            const Clock::time_point tc = Clock::now();
            r.setup_ms.push_back(msBetween(ts, tc));
            ServeReport rep;
            {
                telemetry::Span span("service", kCallSpan);
                rep = engine->run();
                engine.reset();
            }
            r.call_ms.push_back(msBetween(tc, Clock::now()));
            trace.finish();
            r.ops.push_back("traffic" + std::to_string(run.traffic) +
                            "/seed:" + hex64(run.cfg.seed));
            if (acc) {
                acc->serve_batches += rep.batches;
                acc->serve_batched_ops += rep.batch_size.sum;
                acc->serve_deferred += rep.deferred_conflicts;
                acc->serve_blocked += rep.blocked_admissions;
            }

            r.attempted += run.cfg.requests;
            r.failed += run.cfg.requests - rep.ops_acked +
                        rep.oracle_failures;
            if (rep.ops_acked != run.cfg.requests || rep.oracle_failures)
                r.failures.push_back(
                    r.ops.back() + ": " + std::to_string(rep.ops_acked) +
                    " acked, " + std::to_string(rep.oracle_failures) +
                    " oracle failures");
            r.units += rep.ops_acked;
            acked += rep.ops_acked;
            makespan += rep.makespan_ns;
            sig = fnv1aU64(rep.ack_signature, sig);
            sig = fnv1aU64(rep.signature(), sig);
            if (run.traffic == 0)
                merge(zipf_latency, rep.latency);
            checkRun(run, rep, r);
        }
        r.wall_s = msBetween(t0, Clock::now()) / 1e3;
        r.sim.push_back({"serve.signature", hex64(sig)});
        r.sim.push_back({"serve.acked", std::to_string(acked)});
        r.sim.push_back({"sim_serve_mops", exact(acked * 1e3 / makespan)});
        r.sim.push_back({"sim_serve_p99_us",
                         exact(zipf_latency.p99() / 1e3)});
        return r;
    }

  private:
    struct Run {
        int traffic;
        ServeConfig cfg;
    };

    /** The three traffics (README.md says why each is there). */
    static ServeConfig
    traffic(int t)
    {
        ServeConfig c;
        c.think_ns = 2000;
        switch (t) {
          case 0:  // zipfian 50:50 GET:PUT, 5 % DEL, inline 8 B values
            c.shards = 4;
            c.n_sets = 1u << 12;
            c.clients = 128;
            c.requests = 16384;
            c.batch_max = 128;
            c.queue_depth = 1024;
            c.get_ratio = 0.5;
            c.del_ratio = 0.05;
            c.dist = KeyDistKind::Zipfian;
            c.key_space = 1u << 16;
            break;
          case 1:  // uniform 95:5 read-mostly at large batches
            c.shards = 2;
            c.n_sets = 1u << 13;
            c.clients = 2048;
            c.requests = 65536;
            c.batch_max = 2048;
            c.batch_deadline_ns = 100000;
            c.queue_depth = 4096;
            c.think_ns = 1000;
            c.get_ratio = 0.95;
            c.del_ratio = 0.0;
            c.dist = KeyDistKind::Uniform;
            c.key_space = 1u << 18;
            break;
          default:  // PUT-heavy 16 B - 4 KiB values through GpmHeap
            c.shards = 4;
            c.n_sets = 1u << 11;
            c.clients = 256;
            c.requests = 8192;
            c.batch_max = 128;
            c.queue_depth = 1024;
            c.get_ratio = 0.2;
            c.del_ratio = 0.05;
            c.dist = KeyDistKind::Uniform;
            c.key_space = 1u << 14;
            c.value_bytes_min = 16;
            c.value_bytes_max = 4096;
            c.heap_slots_per_class = 2048;
            break;
        }
        return c;
    }

    static void
    merge(telemetry::HistogramData &into, const telemetry::HistogramData &h)
    {
        if (h.count == 0)
            return;
        into.min = into.count ? std::min(into.min, h.min) : h.min;
        into.max = into.count ? std::max(into.max, h.max) : h.max;
        into.count += h.count;
        into.sum += h.sum;
        for (std::size_t b = 0; b < h.bins.size(); ++b)
            into.bins[b] += h.bins[b];
    }

    /**
     * Little's law for a closed loop: every client is either waiting
     * for an ack or thinking, so clients ~= throughput x (mean
     * latency + think time). The finite request count leaves a drain
     * at the end, when retired clients no longer count, hence the
     * tolerance; each client issues at least 32 requests.
     */
    static void
    checkRun(const Run &run, const ServeReport &rep, Round &r)
    {
        const double per_ns = rep.ops_acked / rep.makespan_ns;
        const double n = per_ns * (rep.latency.mean() + run.cfg.think_ns);
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "traffic %d: Little's law gives %.1f clients for %u",
                      run.traffic, n, run.cfg.clients);
        check(r, std::fabs(n / run.cfg.clients - 1.0) <= kLittleTolerance,
              buf);
        check(r, rep.ops_issued == run.cfg.requests,
              "traffic " + std::to_string(run.traffic) + ": issued " +
                  std::to_string(rep.ops_issued) + " of " +
                  std::to_string(run.cfg.requests) + " requests");
    }

    static constexpr double kLittleTolerance = 0.10;

    std::vector<Run> runs_;
};

// ---- reporting --------------------------------------------------------

/** One metric of the final JSON line. */
struct Metric {
    std::string name;
    double value;
    const char *unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(metrics[i].value) ? metrics[i].value
                                                      : 0.0);
        out += (i ? ", \"" : "\"") + metrics[i].name +
               "\": {\"value\": " + buf + ", \"unit\": \"" +
               metrics[i].unit + "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

double
peakRssMib()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;  // KiB on Linux
}

/** A simulated figure of @p sim, or 0 on a workload without it. */
double
simFigure(const SimStats &sim, const std::string &key)
{
    for (const auto &[k, v] : sim) {
        if (k == key)
            return std::strtod(v.c_str(), nullptr);
    }
    return 0.0;
}

/** Per-layer metrics, per traced round, and the simulated figures. */
std::vector<Metric>
layerMetrics(const LayerAccum &a, int rounds, double traced_over_untraced,
             const SimStats &sim)
{
    const double n = rounds;
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const double line_txns = a.count("exec.coalesced_line_txns");
    return {
        {"gpusim.block_self_ms", a.self("block") / n, "ms"},
        {"gpusim.host_ns_per_thread",
         ratio(a.total("block") * 1e6, a.count("sim.threads")), "ns"},
        {"gpusim.flush_ms", a.total("flush") / n, "ms"},
        {"gpusim.stores_per_line_txn",
         ratio(a.count("exec.flushed_accesses"), line_txns), "ratio"},
        {"memsim.line_commit_ms", a.total("line-commit") / n, "ms"},
        {"memsim.host_ns_per_line_txn",
         ratio(a.total("line-commit") * 1e6, line_txns), "ns"},
        {"memsim.seq_aligned_bytes",
         a.count("nvm.observed_seq_aligned_bytes") / n, "B"},
        {"memsim.seq_unaligned_bytes",
         a.count("nvm.observed_seq_unaligned_bytes") / n, "B"},
        {"memsim.random_bytes", a.count("nvm.observed_random_bytes") / n,
         "B"},
        {"platform.launch_self_ms", a.self("launch") / n, "ms"},
        {"platform.launches", LayerAccum::get(a.spans, "launch") / n,
         "count"},
        {"platform.cap_cell_ms", a.cap_call_ms / n, "ms"},
        {"machine.pcie_write_bytes", a.count("machine.pcie_write_bytes") / n,
         "B"},
        {"pmem.extents_drained", a.count("pool.extents_drained") / n,
         "count"},
        {"pmem.extents_merged", a.count("pool.extents_merged") / n, "count"},
        {"pmem.crash_ms", a.total("crash") / n, "ms"},
        {"pmem.crash_survivors", a.count("pool.crash_survivors") / n,
         "count"},
        {"gpm.log_appends",
         (a.count("log.hcl_appends") + a.count("log.conv_appends")) / n,
         "count"},
        {"gpm.checkpoint_ms", a.total("checkpoint") / n, "ms"},
        {"gpm.recovery_ms", a.total("recovery") / n, "ms"},
        {"crashtest.scenario_self_ms", a.self("scenario") / n, "ms"},
        {"service.engine_self_ms", (a.self("service") + a.self("serve")) / n,
         "ms"},
        {"service.batches", a.count("serve.batches_executed") / n, "count"},
        {"service.mean_batch_ops",
         ratio(a.serve_batched_ops, a.serve_batches), "ops"},
        {"service.deferred_conflicts", a.serve_deferred / n, "count"},
        {"service.blocked_admissions", a.serve_blocked / n, "count"},
        {"pmheap.ms", a.total("pmheap") / n, "ms"},
        {"pmheap.tx_commit", a.count("pmheap.tx_commit") / n, "count"},
        {"pmheap.alloc", a.count("pmheap.alloc") / n, "count"},
        {"workloads.outside_launch_ms", (a.call_ms - a.launch_in_call_ms) / n,
         "ms"},
        {"sim.launches", a.count("sim.launches") / n, "count"},
        {"sim.fences", a.count("sim.fences") / n, "count"},
        {"sim.pm_line_txns", a.count("sim.pm_line_txns") / n, "count"},
        {"sim.pm_payload_bytes", a.count("sim.pm_payload_bytes") / n, "B"},
        {"sim.hbm_bytes", a.count("sim.hbm_bytes") / n, "B"},
        {"telemetry.traced_over_untraced", traced_over_untraced, "ratio"},
        {"sim_gpm_ms", simFigure(sim, "sim_gpm_ms"), "sim_ms"},
        {"sim_serve_mops", simFigure(sim, "sim_serve_mops"), "Mops/sim_s"},
        {"sim_serve_p99_us", simFigure(sim, "sim_serve_p99_us"), "sim_us"},
    };
}

/** The simulated counters two traced rounds must reproduce exactly. */
SimStats
tracedSimStats(const LayerAccum &a)
{
    SimStats s;
    for (const auto &[name, v] : a.counters) {
        for (const char *prefix : {"sim.", "nvm.", "machine.", "pool.",
                                   "exec.", "media."}) {
            if (name.rfind(prefix, 0) == 0)
                s.push_back({"trace." + name, exact(v)});
        }
    }
    return s;
}

bool
parseU64(const char *s, std::uint64_t &out)
{
    if (*s < '0' || *s > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || *end)
        return false;
    out = v;
    return true;
}

int
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "figure-grid|crash-recovery|serve-mix --seed N (>= 1) "
                 "--seconds S --trace 0|1\n",
                 why.c_str());
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // glibc raises its mmap threshold to the largest block freed so
    // far (up to 32 MiB) and its trim threshold to twice that. Which
    // block comes first depends on the seed's allocation order, and
    // with it whether recycled pool images are memset or mapped fresh:
    // serve-mix read 49 MiB peak at seed 1 but 144 MiB at seed 2, with
    // twice the set-up time. Fixing both at the heuristic's ceiling
    // puts every seed in the regime a long run converges to.
    //
    // The tools run under glibc's default, so this masks part of the
    // cost of PmImage allocating every machine's pool images afresh.
    // Remove these two calls in the change that reuses pool images,
    // so that its gain is measured against the default allocator.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);

    std::string workload;
    std::uint64_t seed = 0, seconds = 0, trace = 2;
    for (int i = 1; i < argc; i += 2) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + a);
        const char *v = argv[i + 1];
        bool ok = false;
        if (a == "--workload") {
            workload = v;
            ok = true;
        } else if (a == "--seed") {
            ok = parseU64(v, seed) && seed >= 1;
        } else if (a == "--seconds") {
            ok = parseU64(v, seconds) && seconds <= 3600;
        } else if (a == "--trace") {
            ok = parseU64(v, trace) && trace <= 1;
        }
        if (!ok)
            return usage("bad argument " + a + " " + v);
    }
    if (seed == 0 || trace > 1 || workload.empty())
        return usage("--workload, --seed and --trace are required");

    std::unique_ptr<Workload> w;
    const char *unit_name = "";
    if (workload == "figure-grid") {
        w = std::make_unique<FigureGrid>(seed);
        unit_name = "cells";
    } else if (workload == "crash-recovery") {
        w = std::make_unique<CrashRecovery>(seed);
        unit_name = "scenarios";
    } else if (workload == "serve-mix") {
        w = std::make_unique<ServeMix>(seed);
        unit_name = "acked requests";
    } else {
        return usage("unknown workload " + workload);
    }

    // Untraced rounds until the run length has passed (two at least:
    // the second is the in-process determinism check).
    std::vector<Round> rounds;
    const Clock::time_point t0 = Clock::now();
    do {
        rounds.push_back(w->round(nullptr));
    } while (rounds.size() < 2 ||
             msBetween(t0, Clock::now()) < double(seconds) * 1e3);
    const double measured_s = msBetween(t0, Clock::now()) / 1e3;

    std::vector<std::string> problems;
    std::uint64_t attempted = 0, failed = 0, units = 0;
    std::vector<double> walls, setups;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const Round &r = rounds[i];
        attempted += r.attempted;
        failed += r.failed;
        units += r.units;
        walls.push_back(r.wall_s);
        double setup_ms = 0.0;
        for (const double step : r.setup_ms)
            setup_ms += step;
        setups.push_back(setup_ms / 1e3);
        for (const std::string &v : r.violations)
            problems.push_back("round " + std::to_string(i) + ": " + v);
        if (r.sim != rounds[0].sim)
            problems.push_back("round " + std::to_string(i) +
                               ": simulated statistics differ from round 0");
    }
    for (const std::string &f : rounds[0].failures)
        std::printf("failed: %s\n", f.c_str());
    for (const auto &[k, v] : rounds[0].sim)
        std::printf("sim %s %s\n", k.c_str(), v.c_str());

    // Per-operation medians across rounds, then order statistics.
    std::vector<double> op_ms(rounds[0].call_ms.size());
    for (std::size_t op = 0; op < op_ms.size(); ++op) {
        std::vector<double> v;
        for (const Round &r : rounds)
            v.push_back(r.call_ms[op]);
        op_ms[op] = median(v);
    }
    // Set-up time likewise: each step's median across rounds, summed.
    double setup_s = 0.0;
    for (std::size_t step = 0; step < rounds[0].setup_ms.size(); ++step) {
        std::vector<double> v;
        for (const Round &r : rounds)
            v.push_back(r.setup_ms[step]);
        setup_s += median(v) / 1e3;
    }
    std::vector<std::size_t> order(op_ms.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return op_ms[a] > op_ms[b];
    });
    for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i)
        std::printf("slowest %-44s %10.3f ms\n",
                    rounds[0].ops[order[i]].c_str(), op_ms[order[i]]);
    std::printf("rounds %zu in %.3f s, %zu calls per round, %" PRIu64
                " %s; round walls (s):",
                rounds.size(), measured_s, op_ms.size(), units, unit_name);
    for (const double wall : walls)
        std::printf(" %.3f", wall);
    std::printf("\nset-up per round (ms):");
    for (const double setup : setups)
        std::printf(" %.3f", setup * 1e3);
    std::printf("\n");

    std::vector<Metric> metrics;
    if (trace == 0) {
        metrics = {
            {"host_units_per_s", units / measured_s, "1/s"},
            {"host_call_ms_p50", median(op_ms), "ms"},
            {"host_call_ms_tail", tailOf(op_ms), "ms"},
            {"setup_s", setup_s, "s"},
            {"peak_rss_mib", peakRssMib(), "MiB"},
        };
    } else {
        constexpr int kTracedRounds = 2;
        LayerAccum acc;
        std::vector<double> traced_walls;
        SimStats first_counters;
        for (int i = 0; i < kTracedRounds; ++i) {
            LayerAccum one;
            const Round r = w->round(&one);
            traced_walls.push_back(r.wall_s);
            if (r.sim != rounds[0].sim)
                problems.push_back("traced round " + std::to_string(i) +
                                   ": simulated statistics differ from "
                                   "the untraced rounds");
            const SimStats counters = tracedSimStats(one);
            if (i == 0)
                first_counters = counters;
            else if (counters != first_counters)
                problems.push_back("traced rounds disagree on the "
                                   "simulated telemetry counters");
            if (one.root_ms > r.wall_s * 1e3)
                problems.push_back("summed layer self times exceed the "
                                   "traced wall time");
            std::printf("traced round %d: layer self times sum to %.1f ms "
                        "of %.1f ms wall\n",
                        i, one.root_ms, r.wall_s * 1e3);
            acc.merge(one);
        }
        for (const auto &[k, v] : first_counters)
            std::printf("sim %s %s\n", k.c_str(), v.c_str());
        metrics = layerMetrics(acc, kTracedRounds,
                               median(traced_walls) / median(walls),
                               rounds[0].sim);
    }

    w->finalChecks(problems);
    for (const std::string &p : problems)
        std::printf("check FAILED: %s\n", p.c_str());
    if (problems.empty())
        std::printf("check: all correctness checks passed\n");
    // Failed operations are counted in "failed"; "correct" speaks of
    // every check on the operations that did not fail.
    printResult(problems.empty(), attempted, failed, metrics);
    return 0;
}
