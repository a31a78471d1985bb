/**
 * @file
 * gpmtrace — run any GPMbench workload under a telemetry session and
 * write a Chrome-trace timeline plus a metrics snapshot.
 *
 *     gpmtrace --workload kvs [--platform gpm] [--media M]
 *              [--trace trace.json] [--metrics metrics.json]
 *              [--summary [N]] [--no-crash]
 *     gpmtrace list
 *
 * The run executes the canonical (workload, platform) cell cleanly,
 * then — unless --no-crash, and only for workloads with an explicit
 * recovery path — a crash + recovery pass, so the timeline carries
 * every span category: launch, block, flush, line-commit, log,
 * checkpoint, crash, recovery, scenario. trace.json loads directly in
 * Perfetto (ui.perfetto.dev) or chrome://tracing; metrics.json is the
 * uniform gpm-metrics-v1 envelope (see docs/telemetry.md).
 *
 * Both artifacts are re-validated after writing (strict JSON parse +
 * required-key probe) and the accounting identity
 * pm_line_bytes == pm_line_txns * coalesce granule is asserted, so a
 * malformed or inconsistent artifact fails the run that produced it.
 *
 * --summary prints the top-N hottest kernels by traced wall time, the
 * observed NVM tier-byte breakdown, coalescing efficiency, the bytes
 * crashes restored, and histogram percentiles. Arguments and exit
 * codes follow tools/cli.hpp.
 */
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "telemetry/json.hpp"
#include "telemetry/telemetry.hpp"

using namespace gpm;
using namespace gpm::bench;

namespace {

struct Options {
    std::optional<Bench> workload;
    PlatformKind platform = PlatformKind::Gpm;
    std::string trace_path = "trace.json";
    std::string metrics_path = "metrics.json";
    bool summary = false;
    int summary_top = 10;
    bool crash_pass = true;
};

constexpr const char *kUsage =
    "usage: gpmtrace --workload W [--platform P] [--media M]\n"
    "                [--trace FILE] [--metrics FILE]\n"
    "                [--summary [N]] [--no-crash]\n"
    "       gpmtrace list\n"
    "workloads: kvs kvs95 dbi dbu dnn cfd blk hs bfs srad ps\n"
    "platforms: gpm ndp eadr capfs capmm capeadr gpufs\n"
    "--no-crash: skip the crash + recovery pass\n"
    "--summary:  print top-N hottest kernels, NVM tier bytes,\n"
    "            coalescing efficiency, crash-restored bytes and\n"
    "            histogram percentiles\n";

/** Aggregate of one kernel's "launch" spans. */
struct KernelAgg {
    std::uint64_t launches = 0;
    double wall_us = 0.0;
};

void
printSummary(const Options &opt, const telemetry::Session &session,
             const SimConfig &cfg)
{
    const telemetry::MetricsSnapshot snap = session.metrics.snapshot();
    const std::vector<telemetry::TraceEvent> events =
        session.trace.collect();

    // Hottest kernels by traced wall time.
    std::map<std::string, KernelAgg> kernels;
    for (const telemetry::TraceEvent &ev : events) {
        if (std::strcmp(ev.cat, "launch") == 0) {
            KernelAgg &k = kernels[ev.name];
            ++k.launches;
            k.wall_us += ev.dur_us;
        }
    }
    std::vector<std::pair<std::string, KernelAgg>> hot(kernels.begin(),
                                                       kernels.end());
    std::sort(hot.begin(), hot.end(), [](const auto &a, const auto &b) {
        return a.second.wall_us > b.second.wall_us;
    });

    std::printf("== gpmtrace summary: %s on %s ==\n",
                benchName(*opt.workload).c_str(),
                platformName(opt.platform).c_str());

    std::printf("\nhottest kernels (traced host wall time):\n");
    const int top = std::min<int>(opt.summary_top,
                                  static_cast<int>(hot.size()));
    for (int i = 0; i < top; ++i) {
        std::printf("  %-24s %6llu launches  %10.1f us\n",
                    hot[i].first.c_str(),
                    static_cast<unsigned long long>(
                        hot[i].second.launches),
                    hot[i].second.wall_us);
    }

    const std::uint64_t seq_a = snap.counter("nvm.observed_seq_aligned_bytes");
    const std::uint64_t seq_u =
        snap.counter("nvm.observed_seq_unaligned_bytes");
    const std::uint64_t rnd = snap.counter("nvm.observed_random_bytes");
    const std::uint64_t total = seq_a + seq_u + rnd;
    std::printf("\nNVM tier bytes (observed by the media model):\n");
    std::printf("  seq-aligned   %12llu (%5.1f%%)\n",
                static_cast<unsigned long long>(seq_a),
                total ? 100.0 * seq_a / total : 0.0);
    std::printf("  seq-unaligned %12llu (%5.1f%%)\n",
                static_cast<unsigned long long>(seq_u),
                total ? 100.0 * seq_u / total : 0.0);
    std::printf("  random        %12llu (%5.1f%%)\n",
                static_cast<unsigned long long>(rnd),
                total ? 100.0 * rnd / total : 0.0);
    const std::uint64_t read_bytes =
        snap.counter("nvm.observed_read_bytes");
    const std::uint64_t read_ops = snap.counter("nvm.observed_read_ops");
    std::printf("  reads         %12llu bytes in %llu ops\n",
                static_cast<unsigned long long>(read_bytes),
                static_cast<unsigned long long>(read_ops));

    std::printf("\nmedia backend: %s\n", mediaKey(cfg.media).c_str());
    for (const auto &[name, v] : snap.counters) {
        if (name.rfind("media.", 0) == 0)
            std::printf("  %-28s %12llu\n", name.c_str() + 6,
                        static_cast<unsigned long long>(v));
    }

    const std::uint64_t payload = snap.counter("sim.pm_payload_bytes");
    const std::uint64_t line_bytes = snap.counter("sim.pm_line_bytes");
    const std::uint64_t accesses = snap.counter("exec.flushed_accesses");
    const std::uint64_t txns = snap.counter("exec.coalesced_line_txns");
    std::printf("\ncoalescing efficiency:\n");
    std::printf("  %llu stores -> %llu line txns (%.2f stores/txn)\n",
                static_cast<unsigned long long>(accesses),
                static_cast<unsigned long long>(txns),
                txns ? static_cast<double>(accesses) / txns : 0.0);
    std::printf("  %llu payload bytes over %llu line bytes "
                "(%.1f%% of line traffic is payload)\n",
                static_cast<unsigned long long>(payload),
                static_cast<unsigned long long>(line_bytes),
                line_bytes ? 100.0 * payload / line_bytes : 0.0);

    // A crash resets only the pending extents, so this stays far
    // below crashes x pool capacity.
    std::printf("\ncrash reset:\n");
    std::printf("  crashes %llu, restored %llu bytes of the visible "
                "image (pool capacity %zu bytes)\n",
                static_cast<unsigned long long>(
                    snap.counter("pool.crash_events")),
                static_cast<unsigned long long>(
                    snap.counter("pool.crash_restored_bytes")),
                pmCapacity());

    // Tail percentiles of every recorded distribution — the same
    // log2-bin estimator gpmserve's latency accounting uses.
    if (!snap.histograms.empty()) {
        std::printf("\nhistogram percentiles (log2-bin estimates):\n");
        std::printf("  %-32s %8s %10s %10s %10s %10s\n", "name",
                    "count", "mean", "p50", "p99", "p999");
        for (const auto &[name, h] : snap.histograms) {
            std::printf("  %-32s %8llu %10.1f %10.1f %10.1f %10.1f\n",
                        name.c_str(),
                        static_cast<unsigned long long>(h.count),
                        h.mean(), h.p50(), h.p99(), h.p999());
        }
    }
}

bool
writeTrace(const std::string &path, const telemetry::Session &session,
           std::string *error)
{
    {
        std::ofstream os(path);
        if (!os) {
            *error = "cannot open " + path;
            return false;
        }
        telemetry::JsonWriter w(os);
        session.trace.writeJson(w);
    }
    return telemetry::validateJsonFile(path, {"traceEvents"}, error);
}

bool
writeMetrics(const std::string &path, const Options &opt,
             const SimConfig &cfg, const telemetry::Session &session,
             bool identities_ok, std::string *error)
{
    const telemetry::MetricsSnapshot snap = session.metrics.snapshot();
    {
        std::ofstream os(path);
        if (!os) {
            *error = "cannot open " + path;
            return false;
        }
        telemetry::JsonWriter w(os);
        w.beginObject();
        w.field("schema", "gpm-metrics-v1");
        w.field("tool", "gpmtrace");
        w.field("workload", benchKey(*opt.workload));
        w.field("platform", platformKey(opt.platform));
        w.field("media", mediaKey(cfg.media));
        w.field("identities_ok", identities_ok);
        snap.writeFields(w);
        w.endObject();
    }
    return telemetry::validateJsonFile(
        path, {"schema", "tool", "counters", "gauges", "histograms"},
        error);
}

int
runTrace(cli::Args &a)
{
    Options opt;
    SimConfig cfg = bench::benchConfig();
    if (const std::optional<std::string> w = a.value("--workload"))
        opt.workload = cli::workload(*w);
    if (const std::optional<std::string> p = a.value("--platform"))
        opt.platform = cli::platform(*p);
    if (const std::optional<MediaConfig> m = a.media())
        applyMediaConfig(cfg, *m);
    opt.trace_path = a.value("--trace").value_or(opt.trace_path);
    opt.metrics_path = a.value("--metrics").value_or(opt.metrics_path);
    std::optional<std::string> top;
    opt.summary = a.has("--summary", &top);
    if (top) {
        const std::uint64_t n = requireU64("--summary", *top);
        if (n == 0)
            fatal("--summary: want a positive count, got '0'");
        opt.summary_top =
            static_cast<int>(std::min<std::uint64_t>(n, INT_MAX));
    }
    opt.crash_pass = !a.has("--no-crash");
    if (const std::optional<std::string> cmd = a.positional()) {
        if (*cmd != "list")
            fatal("unknown command '", *cmd, "' (valid: list)");
        a.done();
        cli::printBenchKeys();
        return 0;
    }
    if (!opt.workload)
        fatal("--workload is required");
    a.done();

    telemetry::ScopedSession session;

    WorkloadResult clean;
    {
        telemetry::Span span("scenario", "clean-run");
        clean = runBench(*opt.workload, opt.platform, cfg);
    }
    if (!clean.supported) {
        std::fprintf(stderr, "gpmtrace: %s is unsupported on %s\n",
                     benchName(*opt.workload).c_str(),
                     platformName(opt.platform).c_str());
        return 1;
    }

    bool recovered_ok = true;
    if (opt.crash_pass) {
        // Crash + recovery pass: puts crash and recovery spans on the
        // timeline. Workloads with native persistence report (0, 0)
        // and are skipped, exactly as in gpmbench's crash command.
        telemetry::Span span("scenario", "crash-recovery");
        const WorkloadResult r =
            runBenchWithCrash(*opt.workload, cfg);
        if (r.op_ns != 0 || r.recovery_ns != 0)
            recovered_ok = r.verified;
    }

    // Accounting identity: every coalesced line transaction moves
    // exactly one coalesce granule. Holds across clean and crashed
    // passes because launch counters only record completed launches.
    const telemetry::MetricsSnapshot snap =
        session->metrics.snapshot();
    const bool identities_ok =
        snap.counter("sim.pm_line_bytes") ==
        snap.counter("sim.pm_line_txns") * cfg.coalesce_bytes;

    std::string error;
    if (!writeTrace(opt.trace_path, *session, &error)) {
        std::fprintf(stderr, "gpmtrace: trace validation failed: %s\n",
                     error.c_str());
        return 1;
    }
    if (!writeMetrics(opt.metrics_path, opt, cfg, *session,
                      identities_ok, &error)) {
        std::fprintf(stderr, "gpmtrace: metrics validation failed: %s\n",
                     error.c_str());
        return 1;
    }

    std::printf("gpmtrace: %s on %s: %.3f ms simulated, %s\n",
                benchName(*opt.workload).c_str(),
                platformName(opt.platform).c_str(), toMs(clean.op_ns),
                clean.verified ? "verified" : "VERIFY-FAILED");
    std::printf("gpmtrace: wrote %s (%zu events) and %s\n",
                opt.trace_path.c_str(), session->trace.eventCount(),
                opt.metrics_path.c_str());
    if (!identities_ok)
        std::fprintf(stderr,
                     "gpmtrace: ACCOUNTING IDENTITY FAILED: "
                     "pm_line_bytes != pm_line_txns * %zu\n",
                     cfg.coalesce_bytes);
    if (!recovered_ok)
        std::fprintf(stderr, "gpmtrace: crash pass failed to recover\n");

    if (opt.summary)
        printSummary(opt, *session, cfg);

    return (clean.verified && identities_ok && recovered_ok) ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return cli::run("gpmtrace", kUsage, argc, argv, runTrace);
}
