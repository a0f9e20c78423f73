/**
 * @file
 * ctcp_perfbench — runs one benchmark workload and prints its metrics
 * as the last line of standard output (see perfbench/README.md).
 *
 *   ctcp_perfbench --workload NAME --seconds S --trace 0|1
 *                  --ctcpd PATH --work-dir DIR [--t0 MONOTONIC_S]
 *   ctcp_perfbench --selftest --work-dir DIR
 *
 * --trace 0 prints the end-to-end metrics; --trace 1 prints the
 * per-layer metrics, writes the spans to DIR/../spans-NAME.json and a
 * per-span self-time table to standard error.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.hh"

namespace {

using namespace perfbench;

void
usage()
{
    std::fprintf(stderr,
                 "usage: ctcp_perfbench --workload fig6_serial|"
                 "fig6_observed|daemon_sweep --seconds S --trace 0|1\n"
                 "                      --ctcpd PATH --work-dir DIR "
                 "[--t0 S]\n"
                 "       ctcp_perfbench --selftest --work-dir DIR\n");
    std::exit(2);
}

void
printResult(const Result &res, const Metrics &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.correct ? "true" : "false",
                static_cast<unsigned long long>(res.attempted),
                static_cast<unsigned long long>(res.failed));
    const char *sep = "";
    for (const auto &[name, vu] : metrics) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    name.c_str(), vu.first, vu.second.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

/**
 * wall_s at the reference host speed: each round's time scaled by the
 * nominal reference slice time over the mean of the gauges taken just
 * before and just after it. Every round retires the same instructions,
 * so sim_insts_per_s is one round's instructions over wall_s.
 */
Metrics
endToEnd(const Result &res)
{
    const std::vector<double> &gauge = res.gaugeSeconds;
    std::vector<double> scaled;
    for (std::size_t i = 0; i < res.roundSeconds.size(); ++i) {
        const double host =
            i == 0 ? gauge[0] : (gauge[i - 1] + gauge[i]) / 2.0;
        scaled.push_back(res.roundSeconds[i] * referenceNominalSeconds / host);
    }
    const double wall = median(scaled);
    const double perRound =
        res.instructions / static_cast<double>(res.roundSeconds.size());
    std::fprintf(stderr,
                 "as measured: wall_s %.4f s, sim_insts_per_s %.0f, "
                 "reference slice %.2f ms (median of %zu gauges)\n",
                 median(res.roundSeconds),
                 perRound / median(res.roundSeconds), median(gauge) * 1e3,
                 gauge.size());
    return {
        {"setup_s", {res.setupSeconds, "s"}},
        {"wall_s", {wall, "s"}},
        {"sim_insts_per_s", {perRound / wall, "inst/s"}},
        {"peak_rss_mb", {res.peakRssMb, "MiB"}},
    };
}

/** The traced run: the workload once untraced and once traced, then
 *  every layer. */
Metrics
traced(const Context &ctx, Result &res)
{
    const Result plain = runWorkload(ctx, 1);
    Spans::enable(true);
    res = runWorkload(ctx, 1);
    if (!plain.correct)
        res.fail(plain.error);
    Metrics m = measureLayers(ctx);
    for (const auto &[name, value] : res.counts)
        m[name] = {value, "count"};
    // Both rounds at the reference host speed, each by its own gauge.
    m["trace.overhead"] = {res.roundSeconds[0] / res.gaugeSeconds[0] /
                               (plain.roundSeconds[0] / plain.gaugeSeconds[0]),
                           "ratio"};
    m["host.reference_ms"] = {res.gaugeSeconds[0] * 1e3, "ms"};

    std::fprintf(stderr, "\n%-34s %8s %12s %12s\n", "span", "count",
                 "total_ms", "self_ms");
    for (const auto &[name, s] : Spans::summarize())
        std::fprintf(stderr, "%-34s %8zu %12.3f %12.3f\n", name.c_str(),
                     s.count, s.total * 1e3, s.self * 1e3);
    std::fprintf(stderr, "\nworkload %s: untraced round %.3f s, traced "
                         "round %.3f s\n",
                 ctx.workload.c_str(), plain.roundSeconds[0],
                 res.roundSeconds[0]);
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const double started = nowSeconds();
    Context ctx;
    int trace = 0;
    bool selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (arg == "--workload")
            ctx.workload = value();
        else if (arg == "--seconds")
            ctx.seconds = std::strtod(value().c_str(), nullptr);
        else if (arg == "--trace")
            trace = std::atoi(value().c_str());
        else if (arg == "--ctcpd")
            ctx.ctcpdPath = value();
        else if (arg == "--work-dir")
            ctx.workDir = value();
        else if (arg == "--t0")
            ctx.t0 = std::strtod(value().c_str(), nullptr);
        else if (arg == "--selftest")
            selftest = true;
        else
            usage();
    }
    if (ctx.workDir.empty())
        usage();
    if (ctx.t0 <= 0.0)
        ctx.t0 = started;

    namespace fs = std::filesystem;
    fs::remove_all(ctx.workDir);
    fs::create_directories(ctx.workDir);
    int rc = 0;
    try {
        if (selftest) {
            rc = selfTest(ctx.workDir) == 0 ? 0 : 1;
        } else {
            if (!knownWorkload(ctx.workload) || ctx.seconds <= 0.0 ||
                ctx.ctcpdPath.empty() || (trace != 0 && trace != 1))
                usage();
            Result res;
            Metrics metrics;
            if (trace) {
                metrics = traced(ctx, res);
                Spans::write(ctx.workDir + "/../spans-" + ctx.workload +
                             ".json");
            } else {
                ctx.pin = true;
                res = runWorkload(ctx);
                metrics = endToEnd(res);
            }
            if (!res.correct)
                std::fprintf(stderr, "INCORRECT: %s\n", res.error.c_str());
            printResult(res, metrics);
            rc = res.correct ? 0 : 1;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ctcp_perfbench: %s\n", e.what());
        rc = 1;
    }
    fs::remove_all(ctx.workDir);
    return rc;
}
