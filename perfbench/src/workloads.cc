/**
 * @file
 * The three end-to-end workloads. Each runs whole rounds of the same
 * jobs until the measured time is spent, checks every job's outputs
 * after its round (outside the timed phase), and reports per-round
 * wall times.
 */

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "bench.hh"
#include "campaign/matrix.hh"
#include "workload/workload.hh"

namespace perfbench {

namespace fs = std::filesystem;
using ctcp::campaign::Job;
using ctcp::campaign::JobOutcome;

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    rank = std::max<std::size_t>(rank, 1);
    return values[std::min(rank, values.size()) - 1];
}

double
peakRssMb(const std::string &pid)
{
    std::ifstream in("/proc/" + pid + "/status");
    for (std::string line; std::getline(in, line);)
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

std::string
fig6Spec(std::uint64_t budget)
{
    return "bench=six;strategy=base,issue-time:0,issue-time:4,fdrt,"
           "friendly;budget=" +
           std::to_string(budget);
}

std::string
sweepSpec(std::uint64_t budget)
{
    return "bench=gzip,gap,vpr,mcf,gsm_dec,jpeg_enc;"
           "strategy=base,fdrt,issue-time,adaptive;"
           "topology=linear,ring,crossbar,hier,bus;budget=" +
           std::to_string(budget);
}

const std::vector<std::uint64_t> &
sweepBudgets()
{
    static const std::vector<std::uint64_t> budgets = {25000, 50000};
    return budgets;
}

void
addCounts(Counts &into, const ctcp::SimResult &r)
{
    auto metric = [&](const char *name) {
        auto it = r.metrics.find(name);
        return it == r.metrics.end() ? 0.0 : it->second;
    };
    into["sim.cycles"] += static_cast<double>(r.cycles);
    into["sim.instructions"] += static_cast<double>(r.instructions);
    into["sim.tc_hits"] += metric("tc.hits");
    into["sim.tc_misses"] += metric("tc.misses");
    into["sim.traces_built"] += metric("fill.traces_built");
    into["sim.fwd_inter_cluster"] += metric("fwd.inter_cluster");
    into["sim.issue_stalls"] += metric("issue_stalls");
    into["sim.rob_stalls"] += metric("rob_stalls");
    into["sim.fetch_from_ic"] += metric("fetch.from_ic");
    into["sim.mispredicts"] += static_cast<double>(r.mispredicts);
    double events = 0.0;
    for (const auto &[name, value] : r.metrics)
        if (name.compare(0, 11, "obs.events.") == 0)
            events += value;
    into["obs.events"] += events;
}

std::string
strategyOf(const std::string &label)
{
    return label.substr(label.rfind('/') + 1);
}

bool
knownWorkload(const std::string &name)
{
    return name == "fig6_serial" || name == "fig6_observed" ||
           name == "daemon_sweep";
}

namespace {

/** The only failure a workload may contain: an adaptive job stopped by
 *  the forward-progress watchdog (the known adaptive deadlock). */
bool
expectedFailure(const Job &job, const JobOutcome &out)
{
    return job.config.assign.strategy == ctcp::AssignStrategy::Adaptive &&
           out.category == ctcp::ErrorCategory::Hang;
}

/** Check one outcome and account for it in @p res. */
void
checkOutcome(Result &res, const Job &job, const JobOutcome &out)
{
    ++res.attempted;
    if (!out.ok()) {
        ++res.failed;
        if (!expectedFailure(job, out))
            res.fail(job.label + " failed: " + out.error);
        return;
    }
    res.instructions += static_cast<double>(out.result.instructions);
    const std::string why = checkJob(factsOf(job, out.result));
    if (!why.empty())
        res.fail(why);
}

/** Should another round start? Stop when it would likely overrun. */
bool
anotherRound(const Result &res, double seconds, int maxRounds)
{
    if (maxRounds > 0)
        return static_cast<int>(res.roundSeconds.size()) < maxRounds;
    double spent = 0.0;
    for (double s : res.roundSeconds)
        spent += s;
    const double mean = spent / static_cast<double>(res.roundSeconds.size());
    return spent + mean <= seconds;
}

/** Gauge the host after a round: the median of reference slices run
 *  on @p threads threads at once, one per thread that simulates, for a
 *  tenth of the round's time, at least two per thread. */
void
gaugeHost(Result &res, unsigned threads)
{
    std::vector<std::vector<double>> perThread(threads);
    std::vector<std::thread> pool;
    for (std::vector<double> &slices : perThread)
        pool.emplace_back([&res, &slices] {
            double spent = 0.0;
            while (slices.size() < 2 ||
                   spent < 0.1 * res.roundSeconds.back()) {
                slices.push_back(referenceSeconds());
                spent += slices.back();
            }
        });
    for (std::thread &t : pool)
        t.join();
    std::vector<double> slices;
    for (const std::vector<double> &s : perThread)
        slices.insert(slices.end(), s.begin(), s.end());
    res.gaugeSeconds.push_back(median(slices));
    std::fprintf(stderr, "host gauge: %.2f ms\n",
                 res.gaugeSeconds.back() * 1e3);
}

constexpr std::uint64_t intervalPeriod = 1000;
constexpr unsigned daemonWorkers = 2;

Result
runInProcess(const Context &ctx, bool observed, int maxRounds)
{
    Result res;
    std::vector<Job> jobs;
    std::map<std::string, std::shared_ptr<const ctcp::Program>> programs;
    {
        Span span("setup");
        {
            Span parse("campaign.parseMatrix");
            jobs = ctcp::campaign::parseMatrix(fig6Spec());
        }
        for (const std::string &bench : ctcp::workloads::selectedSix()) {
            Span build("workload.build");
            programs[bench] = std::make_shared<const ctcp::Program>(
                ctcp::workloads::build(bench));
        }
    }
    res.setupSeconds = nowSeconds() - ctx.t0;

    // Every job simulates a private copy of its prebuilt Program, as
    // ctcpd's workload cache hands out copies.
    // The round's span is the parent of the copies made on workers.
    auto roundSpan = std::make_shared<int>(-1);
    for (Job &job : jobs) {
        std::shared_ptr<const ctcp::Program> prog = programs[job.benchmark];
        job.builder = [prog, roundSpan] {
            Span span("job.copy_program", *roundSpan);
            return *prog;
        };
    }

    // Cycles of the last round, per benchmark and strategy.
    std::map<std::string, std::map<std::string, double>> cycles;
    const std::string obsDir = ctx.workDir + "/obs";
    ctcp::campaign::Options opt;
    opt.jobs = 1;
    if (observed) {
        fs::create_directories(obsDir);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            jobs[i].config.obs.traceTextPath =
                obsDir + "/" +
                ctcp::campaign::jobFileStem(jobs[i].label, i) +
                ".trace.txt";
            jobs[i].config.obs.traceFilter = "retire";
        }
        opt.accounting = true;
        opt.intervalDir = obsDir;
        opt.intervalCycles = intervalPeriod;
    }

    do {
        ctcp::campaign::Report report;
        const double t = nowSeconds();
        {
            Span span("campaign.runCampaign");
            *roundSpan = span.id();
            report = ctcp::campaign::runCampaign(jobs, opt);
        }
        res.roundSeconds.push_back(nowSeconds() - t);
        std::fprintf(stderr, "round %zu: %.4f s\n", res.roundSeconds.size(),
                     res.roundSeconds.back());
        // The simulation's own peak: every round runs the same jobs, and
        // the checks' replays and the reference kernel come later.
        if (res.roundSeconds.size() == 1)
            res.peakRssMb = peakRssMb();
        gaugeHost(res, opt.jobs);

        res.counts.clear();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobOutcome &out = report.jobs[i];
            checkOutcome(res, jobs[i], out);
            if (!out.ok())
                continue;
            addCounts(res.counts, out.result);
            cycles[jobs[i].benchmark][strategyOf(jobs[i].label)] =
                static_cast<double>(out.result.cycles);
            if (!observed)
                continue;
            const ctcp::SimConfig &cfg = jobs[i].config;
            const std::string stem =
                obsDir + "/" + ctcp::campaign::jobFileStem(jobs[i].label, i);
            for (const std::string &why :
                 {checkAccounting(out.result, cfg.cluster.numClusters,
                                  cfg.cluster.clusterWidth),
                  checkRetireTrace(cfg.obs.traceTextPath,
                                   out.result.instructions),
                  checkIntervals(stem + ".intervals.csv", out.result.cycles,
                                 intervalPeriod)})
                if (!why.empty())
                    res.fail(why);
        }
        if (observed) {
            fs::remove_all(obsDir);
            fs::create_directories(obsDir);
        }
    } while (anotherRound(res, ctx.seconds, maxRounds));

    // Figure 6: harmonic mean over the benchmarks of base cycles over
    // each strategy's cycles (simulated time, deterministic).
    std::fprintf(stderr, "fig6 HM speedup over base:");
    for (const auto &[strategy, unused] : cycles.begin()->second) {
        double inverse = 0.0;
        for (const auto &[bench, byStrategy] : cycles)
            inverse += byStrategy.at(strategy) / byStrategy.at("base");
        std::fprintf(stderr, " %s %.3f", strategy.c_str(),
                     static_cast<double>(cycles.size()) / inverse);
    }
    std::fprintf(stderr, "\n");

    if (observed)
        fs::remove_all(obsDir);
    return res;
}

Result
runDaemon(const Context &ctx, int maxRounds)
{
    Result res;
    const std::string dir = ctx.workDir + "/daemon";
    fs::remove_all(dir);
    const double spawned = nowSeconds();
    Daemon daemon(ctx.ctcpdPath, dir, daemonWorkers);
    if (!daemon.waitReady(60.0))
        throw std::runtime_error("ctcpd did not answer /v1/ping");
    res.setupSeconds = nowSeconds() - spawned;

    // The same expansion the daemon performs, for the checks.
    std::vector<std::vector<Job>> expected;
    for (std::uint64_t budget : sweepBudgets())
        expected.push_back(ctcp::campaign::parseMatrix(sweepSpec(budget)));

    do {
        std::vector<Daemon::Run> runs;
        const double t = nowSeconds();
        {
            Span span("service.round");
            for (std::uint64_t budget : sweepBudgets())
                runs.push_back(daemon.run(sweepSpec(budget)));
        }
        res.roundSeconds.push_back(nowSeconds() - t);
        std::fprintf(stderr, "round %zu: %.4f s\n", res.roundSeconds.size(),
                     res.roundSeconds.back());
        // ctcpd keeps every finished run in memory, so a later reading
        // would grow with the number of rounds the host's speed allowed.
        if (res.roundSeconds.size() == 1)
            res.peakRssMb = daemon.peakRssMb();
        gaugeHost(res, daemonWorkers);

        res.counts.clear();
        for (std::size_t b = 0; b < runs.size(); ++b) {
            const Daemon::Run &run = runs[b];
            const std::vector<Job> &jobs = expected[b];
            if (!run.error.empty())
                res.fail(run.error);
            if (run.records.size() != jobs.size())
                res.fail("run " + run.id + " streamed " +
                         std::to_string(run.records.size()) + " of " +
                         std::to_string(jobs.size()) + " jobs");
            std::size_t failed = 0;
            for (const auto &rec : run.records) {
                if (rec.index >= jobs.size()) {
                    res.fail("event for unknown slot");
                    continue;
                }
                checkOutcome(res, jobs[rec.index], rec.outcome);
                if (rec.outcome.ok())
                    addCounts(res.counts, rec.outcome.result);
                else
                    ++failed;
            }
            if (run.report.find("\"failed\": " + std::to_string(failed) +
                                "\n") == std::string::npos)
                res.fail("report of " + run.id +
                         " disagrees with its events on failures");
        }
    } while (anotherRound(res, ctx.seconds, maxRounds));
    return res;
}

} // namespace

Result
runWorkload(const Context &ctx, int maxRounds)
{
    if (ctx.pin)
        pinToCpus(ctx.workload == "daemon_sweep" ? daemonWorkers : 1);
    if (ctx.workload == "daemon_sweep")
        return runDaemon(ctx, maxRounds);
    return runInProcess(ctx, ctx.workload == "fig6_observed", maxRounds);
}

} // namespace perfbench
