/**
 * @file
 * gpmserve — drive the deterministic KVS serving engine (src/service)
 * and write BENCH_serve.json.
 *
 *     gpmserve [--seed N] [--jobs N] [--media M]
 *              [--out BENCH_serve.json]
 *
 * Five stages, all on virtual time:
 *
 *  1. amortization — sweep the dynamic batcher's batch_max over
 *     {32, 128, 512, 2048, 8192} under one fixed closed-loop offered
 *     load. The paper's launch+persist amortization argument must show
 *     up as monotone throughput growth, >= 5x from smallest to
 *     largest batch (asserted).
 *  2. load-latency — sweep offered load (client think time) against
 *     shard counts; each cell reports virtual-time p50/p99/p999
 *     request-to-ack latency and throughput, the data behind a
 *     classic throughput-vs-tail-latency serving curve.
 *  3. determinism — run one fixed config at --jobs widths 1/2/4/8
 *     (batch-flush sweep lanes) and assert the full report signature
 *     and the ack-stream signature are bit-identical across widths.
 *  4. crash — arm a mid-traffic power failure, then assert the crash
 *     fired, recovery ran on every shard, and zero acknowledged
 *     writes were lost.
 *  5. variable-size — GpmHeap-backed values from 16 to 4096 B, with
 *     its own width check and mixed-size crash leg.
 *
 * The JSON artifact is the uniform gpm-metrics-v1 envelope with the
 * stage tables spliced in, and is schema-validated after writing.
 * Every stage result folds into one bench signature (printed and in
 * the JSON) that is invariant under --jobs, so CI pins it once and
 * compares across widths. Arguments and exit codes follow
 * tools/cli.hpp; a failed stage gate exits 1.
 */
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/hash.hpp"
#include "common/status.hpp"
#include "service/serve_engine.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

using namespace gpm;

namespace {

struct Options {
    ServeConfig base;  ///< seed, jobs and media every stage starts from
    std::string out_path = "BENCH_serve.json";
};

constexpr const char *kUsage =
    "usage: gpmserve [--seed N] [--jobs N] [--media M] [--out FILE]\n"
    "--jobs N:  sweep lanes for parallel batch flushes\n"
    "stages: amortization (batch_max sweep, >=5x asserted),\n"
    "        load-latency (think x shards grid, p50/p99/p999),\n"
    "        determinism (widths 1/2/4/8 bit-identical),\n"
    "        crash (mid-traffic power failure, zero acked loss),\n"
    "        variable-size (GpmHeap values 16 -> 4096 B, oracle-\n"
    "        checked acks, width-pinned, crash + heap recovery)\n";

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Bit image of a double for order-stable signature folding. */
std::uint64_t
bitsOf(double v)
{
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** One amortization-stage row. */
struct AmortRow {
    std::uint32_t batch_max = 0;
    ServeReport rep;
};

/** One load-latency-stage row. */
struct LoadRow {
    std::uint32_t shards = 0;
    SimNs think_ns = 0;
    ServeReport rep;
};

/** One variable-size-stage row. */
struct VarRow {
    std::uint32_t value_bytes = 0;
    ServeReport rep;
};

/** Stage 1: fixed offered load, batch_max sweep. */
std::vector<AmortRow>
runAmortization(const ServeConfig &base)
{
    telemetry::Span span("serve", "stage_amortization");
    std::vector<AmortRow> rows;
    for (const std::uint32_t bmax : {32u, 128u, 512u, 2048u, 8192u}) {
        ServeConfig sc = base;
        // One pipeline: the batch-size axis needs full batches at
        // 8192, and a closed-loop population split across shards
        // drains a single shard's queue below that after each ack
        // wave. Shard scaling is the load-latency stage's axis.
        sc.shards = 1;
        sc.n_sets = 1u << 17;
        sc.clients = 65536;
        sc.requests = 131072;
        sc.batch_max = bmax;
        sc.batch_deadline_ns = 1e6;  // size-dominated closes
        sc.queue_depth = 65536;
        sc.think_ns = 1000;
        // Read-mostly serving mix (the MegaKV regime): GETs are
        // HBM-served and write no PM, so this stage isolates what
        // batching actually amortizes — the per-launch driver +
        // persist overhead — instead of saturating the random NVM
        // write tier (whose WPQ-absorbed head would otherwise favor
        // mid-size batches over large ones).
        sc.get_ratio = 1.0;
        sc.del_ratio = 0.0;
        // Uniform keys over a wide space: the batch-size axis, not
        // same-set conflict deferral, is what this stage measures.
        sc.dist = KeyDistKind::Uniform;
        sc.key_space = 1u << 20;
        rows.push_back({bmax, ServiceEngine(sc).run()});
        const ServeReport &r = rows.back().rep;
        std::printf("gpmserve: batch_max=%-5u %8.3f Mops  "
                    "mean batch %7.1f  p99 %9.0f ns  "
                    "(%llu size / %llu deadline closes)\n",
                    bmax, r.throughput_mops, r.batch_size.mean(),
                    r.latency.p99(),
                    static_cast<unsigned long long>(r.size_closes),
                    static_cast<unsigned long long>(r.deadline_closes));
        GPM_REQUIRE(r.oracle_failures == 0,
                    "amortization stage: oracle failures at batch_max ",
                    bmax);
    }
    // The acceptance gate: monotone amortization, >= 5x end to end.
    // Monotonicity tolerates a 2 % dip at saturation: on media fast
    // enough that batching stops being the bottleneck (interleaved:8,
    // cxl), the curve plateaus and the largest batch can sit a hair
    // under the knee without refuting the amortization argument.
    for (std::size_t i = 1; i < rows.size(); ++i)
        GPM_REQUIRE(rows[i].rep.throughput_mops >=
                        0.98 * rows[i - 1].rep.throughput_mops,
                    "throughput not monotone in batch_max: ",
                    rows[i].batch_max, " ops/batch is slower than ",
                    rows[i - 1].batch_max);
    GPM_REQUIRE(rows.back().rep.throughput_mops >=
                    5.0 * rows.front().rep.throughput_mops,
                "batch amortization below 5x: ",
                rows.front().rep.throughput_mops, " -> ",
                rows.back().rep.throughput_mops, " Mops");
    return rows;
}

/** Stage 2: offered-load (think time) x shard-count grid. */
std::vector<LoadRow>
runLoadLatency(const ServeConfig &base)
{
    telemetry::Span span("serve", "stage_load_latency");
    std::vector<LoadRow> rows;
    for (const std::uint32_t shards : {1u, 2u, 4u}) {
        for (const double think : {0.0, 50000.0, 200000.0, 800000.0}) {
            ServeConfig sc = base;
            sc.shards = shards;
            sc.n_sets = 1u << 13;
            sc.clients = 2048;
            sc.requests = 16384;
            sc.batch_max = 256;
            sc.batch_deadline_ns = 20000;
            sc.queue_depth = 4096;
            sc.think_ns = think;
            // Uniform keys: a zipfian mix pins the whole grid to the
            // hot key's one-op-per-batch serialization (the set-dedup
            // contract), which flattens both axes. Skew effects are
            // the zipfian stages' and tests' subject, not this grid's.
            sc.dist = KeyDistKind::Uniform;
            sc.key_space = 1u << 18;
            rows.push_back({shards, think, ServiceEngine(sc).run()});
            GPM_REQUIRE(rows.back().rep.oracle_failures == 0,
                        "load-latency stage: oracle failures at ",
                        shards, " shards, think ", think);
        }
    }
    return rows;
}

/**
 * The small zipfian mix of the determinism and variable-size stages:
 * two shards, 512 clients, 8192 requests.
 */
ServeConfig
smallMix(const ServeConfig &base)
{
    ServeConfig sc = base;
    sc.shards = 2;
    sc.n_sets = 1u << 12;
    sc.clients = 512;
    sc.requests = 8192;
    sc.batch_max = 256;
    sc.batch_deadline_ns = 20000;
    sc.queue_depth = 1024;
    sc.think_ns = 2000;
    sc.get_ratio = 0.5;
    sc.del_ratio = 0.05;
    sc.dist = KeyDistKind::Zipfian;
    sc.key_space = 1u << 16;
    return sc;
}

/**
 * The mid-traffic power failure of the crash stage and the
 * variable-size crash leg (values of @p value_bytes_min to
 * @p value_bytes_max; 0 keeps the fixed-size path): it must fire,
 * recover every shard and lose no acknowledged write.
 */
ServeReport
runCrash(const ServeConfig &base, const char *stage,
         std::uint32_t value_bytes_min, std::uint32_t value_bytes_max)
{
    ServeConfig sc = base;
    sc.shards = 2;
    sc.n_sets = 1u << 9;
    sc.clients = 512;
    sc.requests = 4096;
    sc.batch_max = 64;
    sc.batch_deadline_ns = 1e6;
    sc.queue_depth = 256;
    sc.think_ns = 0.0;
    sc.get_ratio = 0.3;
    sc.del_ratio = 0.1;
    sc.key_space = 1u << 12;
    sc.value_bytes_min = value_bytes_min;
    sc.value_bytes_max = value_bytes_max;
    sc.crash_at_launch = 6;
    CrashSpec spec;
    spec.kind = CrashSpec::Kind::Fraction;
    spec.fraction = 0.6;
    sc.crash_point = spec.materialize(std::uint64_t(sc.batch_max) *
                                      GpKvsParams::kGroup);
    sc.survive_prob = 0.5;
    const ServeReport r = ServiceEngine(sc).run();
    GPM_REQUIRE(r.crash_fired, stage, ": armed point never fired");
    GPM_REQUIRE(r.recovery_ran, stage, ": recovery never ran");
    GPM_REQUIRE(r.durable_ok, stage,
                ": acknowledged writes were lost");
    GPM_REQUIRE(r.oracle_failures == 0, stage, ": oracle failures");
    return r;
}

/**
 * Stage 3: widths 1/2/4/8 must be bit-identical; a divergence throws.
 */
ServeReport
runDeterminism(const ServeConfig &base)
{
    telemetry::Span span("serve", "stage_determinism");
    ServeReport ref;
    for (const int width : {1, 2, 4, 8}) {
        ServeConfig sc = smallMix(base);
        sc.jobs = width;
        const ServeReport r = ServiceEngine(sc).run();
        if (width == 1) {
            ref = r;
            continue;
        }
        GPM_REQUIRE(r.ack_signature == ref.ack_signature,
                    "ack stream diverged at width ", width, ": ",
                    hex64(r.ack_signature), " != ",
                    hex64(ref.ack_signature));
        GPM_REQUIRE(r.signature() == ref.signature(),
                    "report signature diverged at width ", width, ": ",
                    hex64(r.signature()), " != ", hex64(ref.signature()));
    }
    GPM_REQUIRE(ref.oracle_failures == 0,
                "determinism stage: oracle failures");
    return ref;
}

/**
 * Stage 5: variable-size values (GpmHeap-backed). One fixed traffic
 * shape, value size swept 16 -> 4096 bytes; every ack is checked
 * against the payload-hash oracle. The amortization claim extends to
 * payload bytes: a 256x payload growth must not cost anywhere near
 * 256x in op throughput (staging rides the same batched launches), so
 * the end-to-end slowdown is asserted under 32x. The 256 B row is
 * re-run at --jobs widths 1 and 8 to pin the ack stream, and a
 * mid-traffic power failure with mixed sizes must
 * lose no acknowledged write through GpmHeap::recover().
 */
std::vector<VarRow>
runVariableSize(const ServeConfig &base, ServeReport *crash_out)
{
    telemetry::Span span("serve", "stage_variable_size");
    std::vector<VarRow> rows;
    for (const std::uint32_t vb : {16u, 64u, 256u, 1024u, 4096u}) {
        ServeConfig sc = smallMix(base);
        sc.value_bytes_min = vb;
        sc.value_bytes_max = vb;
        rows.push_back({vb, ServiceEngine(sc).run()});
        const ServeReport &r = rows.back().rep;
        std::printf("gpmserve: value_bytes=%-5u %8.3f Mops  "
                    "%9.1f MB/s payload  p99 %9.0f ns\n",
                    vb, r.throughput_mops,
                    r.throughput_mops * vb, r.latency.p99());
        GPM_REQUIRE(r.oracle_failures == 0,
                    "variable-size stage: oracle failures at ", vb,
                    " B values");
        if (vb == 256) {
            // Width determinism for the heap-backed path.
            for (const int w : {1, 8}) {
                ServeConfig wc = sc;
                wc.jobs = w;
                const ServeReport wr = ServiceEngine(wc).run();
                GPM_REQUIRE(wr.ack_signature == r.ack_signature &&
                                wr.signature() == r.signature(),
                            "variable-size ack stream diverged at "
                            "width ", w);
            }
        }
    }
    GPM_REQUIRE(rows.back().rep.throughput_mops * 32.0 >=
                    rows.front().rep.throughput_mops,
                "variable-size amortization broke down: 256x payload "
                "cost more than 32x throughput (",
                rows.front().rep.throughput_mops, " -> ",
                rows.back().rep.throughput_mops, " Mops)");

    // Mixed-size mid-traffic power failure: GpmHeap::recover() must
    // reconcile every shard with zero acknowledged-write loss.
    *crash_out = runCrash(base, "variable-size crash", 16, 4096);
    return rows;
}

void
writeReportFields(telemetry::JsonWriter &w, const ServeReport &r)
{
    w.field("ops_issued", r.ops_issued);
    w.field("ops_acked", r.ops_acked);
    w.field("batches", r.batches);
    w.field("size_closes", r.size_closes);
    w.field("deadline_closes", r.deadline_closes);
    w.field("deferred_conflicts", r.deferred_conflicts);
    w.field("blocked_admissions", r.blocked_admissions);
    w.field("oracle_failures", r.oracle_failures);
    w.field("makespan_ns", r.makespan_ns);
    w.field("throughput_mops", r.throughput_mops);
    w.field("mean_batch_size", r.batch_size.mean());
    w.field("latency_p50_ns", r.latency.p50());
    w.field("latency_p90_ns", r.latency.p90());
    w.field("latency_p99_ns", r.latency.p99());
    w.field("latency_p999_ns", r.latency.p999());
    w.field("latency_mean_ns", r.latency.mean());
    w.field("latency_max_ns", r.latency.max);
    w.field("ack_signature", hex64(r.ack_signature));
}

bool
writeBench(const Options &opt, const std::vector<AmortRow> &amort,
           const std::vector<LoadRow> &load, const ServeReport &det,
           const ServeReport &crash,
           const std::vector<VarRow> &var, const ServeReport &var_crash,
           std::uint64_t bench_sig, const telemetry::Session &session,
           std::string *error)
{
    {
        std::ofstream os(opt.out_path);
        if (!os) {
            *error = "cannot open " + opt.out_path;
            return false;
        }
        telemetry::JsonWriter w(os);
        w.beginObject();
        w.field("schema", "gpm-metrics-v1");
        w.field("tool", "gpmserve");
        w.field("seed", opt.base.seed);
        w.field("jobs", opt.base.jobs);
        w.field("media", mediaKey(opt.base.media));
        w.field("bench_signature", hex64(bench_sig));

        w.key("amortization");
        w.beginArray();
        for (const AmortRow &row : amort) {
            w.beginObject();
            w.field("batch_max", row.batch_max);
            writeReportFields(w, row.rep);
            w.endObject();
        }
        w.endArray();
        w.field("amortization_gain",
                amort.front().rep.throughput_mops > 0
                    ? amort.back().rep.throughput_mops /
                          amort.front().rep.throughput_mops
                    : 0.0);

        w.key("load_latency");
        w.beginArray();
        for (const LoadRow &row : load) {
            w.beginObject();
            w.field("shards", row.shards);
            w.field("think_ns", row.think_ns);
            writeReportFields(w, row.rep);
            w.endObject();
        }
        w.endArray();

        w.key("determinism");
        w.beginObject();
        w.field("widths", "1,2,4,8");
        w.field("ok", true);  // runDeterminism threw otherwise
        w.field("signature", hex64(det.signature()));
        writeReportFields(w, det);
        w.endObject();

        w.key("crash");
        w.beginObject();
        w.field("fired", crash.crash_fired);
        w.field("recovery_ran", crash.recovery_ran);
        w.field("durable_ok", crash.durable_ok);
        w.field("oracle_failures", crash.oracle_failures);
        w.field("state_hash", hex64(crash.state_hash));
        w.field("pool_crashes", crash.pool_crashes);
        w.field("crash_sub_extents", crash.crash_sub_extents);
        w.field("crash_survivors", crash.crash_survivors);
        w.endObject();

        w.key("variable_size");
        w.beginArray();
        for (const VarRow &row : var) {
            w.beginObject();
            w.field("value_bytes", row.value_bytes);
            w.field("payload_mbps",
                    row.rep.throughput_mops * row.value_bytes);
            writeReportFields(w, row.rep);
            w.endObject();
        }
        w.endArray();
        w.field("variable_size_slowdown",
                var.back().rep.throughput_mops > 0
                    ? var.front().rep.throughput_mops /
                          var.back().rep.throughput_mops
                    : 0.0);
        w.key("variable_size_crash");
        w.beginObject();
        w.field("fired", var_crash.crash_fired);
        w.field("recovery_ran", var_crash.recovery_ran);
        w.field("durable_ok", var_crash.durable_ok);
        w.field("oracle_failures", var_crash.oracle_failures);
        w.field("state_hash", hex64(var_crash.state_hash));
        w.endObject();

        session.metrics.snapshot().writeFields(w);
        w.endObject();
    }
    return telemetry::validateJsonFile(
        opt.out_path,
        {"schema", "tool", "amortization", "load_latency",
         "determinism", "crash", "variable_size", "counters",
         "histograms"},
        error);
}

int
runServe(cli::Args &a)
{
    Options opt;
    opt.base.seed = a.u64("--seed", opt.base.seed);
    opt.base.jobs = std::max(1, a.jobs(4));
    opt.base.media = a.media().value_or(opt.base.media);
    opt.out_path = a.value("--out").value_or(opt.out_path);
    a.done();

    telemetry::ScopedSession session;

    const std::vector<AmortRow> amort = runAmortization(opt.base);
    std::printf("gpmserve: amortization %.3f -> %.3f Mops "
                "(%.1fx over batch 32 -> 8192)\n",
                amort.front().rep.throughput_mops,
                amort.back().rep.throughput_mops,
                amort.back().rep.throughput_mops /
                    amort.front().rep.throughput_mops);

    const std::vector<LoadRow> load = runLoadLatency(opt.base);
    for (const LoadRow &row : load)
        std::printf("gpmserve: shards=%u think=%-7.0f "
                    "%8.3f Mops  p50 %8.0f  p99 %8.0f  "
                    "p999 %8.0f ns\n",
                    row.shards, row.think_ns,
                    row.rep.throughput_mops, row.rep.latency.p50(),
                    row.rep.latency.p99(), row.rep.latency.p999());

    const ServeReport det = runDeterminism(opt.base);
    std::printf("gpmserve: determinism widths 1/2/4/8 ok, "
                "ack-signature %s\n",
                hex64(det.ack_signature).c_str());

    ServeReport crash;
    {
        telemetry::Span span("serve", "stage_crash");
        crash = runCrash(opt.base, "crash stage", 0, 0);
    }
    std::printf("gpmserve: crash fired=%d recovered=%d "
                "durable_ok=%d\n",
                crash.crash_fired, crash.recovery_ran,
                crash.durable_ok);

    ServeReport var_crash;
    const std::vector<VarRow> var =
        runVariableSize(opt.base, &var_crash);
    std::printf("gpmserve: variable-size 16 B -> 4096 B slowdown "
                "%.1fx, crash fired=%d recovered=%d "
                "durable_ok=%d\n",
                var.front().rep.throughput_mops /
                    var.back().rep.throughput_mops,
                var_crash.crash_fired, var_crash.recovery_ran,
                var_crash.durable_ok);

    // One order-stable fingerprint over every stage: identical at
    // any --jobs width, so CI pins it once.
    std::uint64_t sig = kFnvOffset;
    for (const AmortRow &row : amort) {
        sig = fnv1aU64(row.batch_max, sig);
        sig = fnv1aU64(row.rep.signature(), sig);
    }
    for (const LoadRow &row : load) {
        sig = fnv1aU64(row.shards, sig);
        sig = fnv1aU64(bitsOf(row.think_ns), sig);
        sig = fnv1aU64(row.rep.signature(), sig);
    }
    sig = fnv1aU64(det.signature(), sig);
    sig = fnv1aU64(crash.signature(), sig);
    for (const VarRow &row : var) {
        sig = fnv1aU64(row.value_bytes, sig);
        sig = fnv1aU64(row.rep.signature(), sig);
    }
    sig = fnv1aU64(var_crash.signature(), sig);
    std::printf("gpmserve: bench-signature %s\n",
                hex64(sig).c_str());

    std::string error;
    if (!writeBench(opt, amort, load, det, crash, var,
                    var_crash, sig, *session, &error)) {
        std::fprintf(stderr,
                     "gpmserve: artifact validation failed: %s\n",
                     error.c_str());
        return 1;
    }
    std::printf("gpmserve: wrote %s\n", opt.out_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gpmserve", kUsage, argc, argv, runServe);
}
