/**
 * @file
 * Output checks. Every simulated job is checked against properties
 * and an independent replay of its committed stream through
 * Executor::step, never against stored copies of earlier outputs.
 */

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "bench.hh"
#include "campaign/matrix.hh"
#include "func/executor.hh"
#include "workload/workload.hh"

namespace perfbench {

namespace {

/**
 * Prefix counts over a benchmark's committed stream: loads[n] and
 * stores[n] count those ops among the first n instructions; fwd[n]
 * counts loads among them whose word was stored by one of the
 * preceding `window` instructions, i.e. loads that the timing model
 * may satisfy from a store still in the ROB (such loads never reach
 * the data cache, so dmem.loads does not count them).
 */
struct Replay
{
    Replay(const std::string &bench, unsigned window_)
        : program(ctcp::workloads::build(bench)),
          exec(std::make_unique<ctcp::Executor>(program)), window(window_)
    {}

    ctcp::Program program;
    std::unique_ptr<ctcp::Executor> exec;
    unsigned window;
    std::vector<std::uint32_t> loads{0}, stores{0}, fwd{0};
    std::unordered_map<ctcp::Addr, std::uint64_t> lastStore;

    bool
    extendTo(std::uint64_t n)
    {
        ctcp::DynInst d;
        while (loads.size() <= n) {
            if (exec->halted() || !exec->step(d))
                return false;
            const std::uint64_t seq = loads.size() - 1;
            std::uint32_t ld = loads.back(), st = stores.back(),
                          fw = fwd.back();
            if (d.isLoadOp()) {
                ++ld;
                auto it = lastStore.find(d.effAddr >> 3);
                if (it != lastStore.end() && seq - it->second <= window)
                    ++fw;
            } else if (d.isStoreOp()) {
                ++st;
                lastStore[d.effAddr >> 3] = seq;
            }
            loads.push_back(ld);
            stores.push_back(st);
            fwd.push_back(fw);
        }
        return true;
    }
};

Replay &
replayOf(const std::string &bench, unsigned window)
{
    static std::map<std::string, std::unique_ptr<Replay>> cache;
    std::unique_ptr<Replay> &r =
        cache[bench + "/" + std::to_string(window)];
    if (!r)
        r = std::make_unique<Replay>(bench, window);
    return *r;
}

std::string
fmt(const char *spec, ...) __attribute__((format(printf, 1, 2)));

std::string
fmt(const char *spec, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, spec);
    std::vsnprintf(buf, sizeof(buf), spec, ap);
    va_end(ap);
    return buf;
}

} // namespace

JobFacts
factsOf(const ctcp::campaign::Job &job, const ctcp::SimResult &result)
{
    JobFacts f;
    f.label = job.label;
    f.benchmark = job.benchmark;
    f.budget = job.config.instructionLimit;
    f.retired = result.instructions;
    f.cycles = result.cycles;
    auto metric = [&](const char *name) {
        auto it = result.metrics.find(name);
        return it == result.metrics.end() ? -1.0 : it->second;
    };
    f.stores = metric("dmem.stores");
    f.loads = metric("dmem.loads");
    f.retireWidth = job.config.core.retireWidth;
    f.machineWidth = job.config.machineWidth();
    f.robEntries = job.config.core.robEntries;
    return f;
}

std::string
checkJob(const JobFacts &f)
{
    const char *l = f.label.c_str();
    if (f.retired < f.budget || f.retired > f.budget + f.retireWidth)
        return fmt("%s: retired %" PRIu64 " outside [%" PRIu64
                   ", %" PRIu64 "]",
                   l, f.retired, f.budget, f.budget + f.retireWidth);
    const double ipc = f.cycles ? double(f.retired) / double(f.cycles)
                                : 0.0;
    if (!(ipc > 0.0) || ipc > double(f.machineWidth))
        return fmt("%s: IPC %.4f outside (0, %u]", l, ipc,
                   f.machineWidth);

    Replay &r = replayOf(f.benchmark, f.robEntries);
    if (!r.extendTo(f.retired + f.robEntries))
        return fmt("%s: replay halted before %" PRIu64 " instructions",
                   l, f.retired + f.robEntries);
    const double stores = r.stores[f.retired];
    if (f.stores != stores)
        return fmt("%s: %.0f stores retired, replay has %.0f", l,
                   f.stores, stores);
    const double lo = double(r.loads[f.retired]) -
                      double(r.fwd[f.retired + f.robEntries]);
    const double hi = r.loads[f.retired + f.robEntries];
    if (f.loads < lo || f.loads > hi)
        return fmt("%s: dmem.loads %.0f outside replay bound [%.0f, "
                   "%.0f]",
                   l, f.loads, lo, hi);
    return "";
}

std::string
checkAccounting(const ctcp::SimResult &result, unsigned clusters,
                unsigned width)
{
    if (result.accounting.empty())
        return result.benchmark + ": no accounting block";
    for (unsigned c = 0; c < clusters; ++c) {
        const std::string prefix =
            "cluster" + std::to_string(c) + ".slots.";
        double sum = 0.0;
        for (auto it = result.accounting.lower_bound(prefix);
             it != result.accounting.end() &&
             it->first.compare(0, prefix.size(), prefix) == 0;
             ++it)
            sum += it->second;
        const double want = double(result.cycles) * width;
        if (sum != want)
            return fmt("%s/%s: cluster %u slots sum to %.0f, not "
                       "cycles x width = %.0f",
                       result.benchmark.c_str(),
                       result.strategy.c_str(), c, sum, want);
    }
    return "";
}

std::string
checkRetireTrace(const std::string &path, std::uint64_t retired,
                 std::uint64_t *bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return "missing trace " + path;
    std::uint64_t expect = 0, size = 0;
    std::string why;
    char line[512];
    while (why.empty() && std::fgets(line, sizeof(line), f) != nullptr) {
        size += std::strlen(line);
        std::uint64_t cycle = 0, seq = 0;
        char kind[16] = {};
        if (std::sscanf(line, "%" SCNu64 " %15s seq=%" SCNu64, &cycle,
                        kind, &seq) != 3 ||
            std::strcmp(kind, "retire") != 0)
            why = "unexpected trace line: " + std::string(line);
        else if (seq != expect)
            why = fmt("retire seq %" PRIu64 " where %" PRIu64
                      " was due", seq, expect);
        ++expect;
    }
    std::fclose(f);
    if (why.empty() && expect != retired)
        why = fmt("%" PRIu64 " retire events for %" PRIu64
                     " retired instructions", expect, retired);
    if (bytes != nullptr)
        *bytes = size;
    return why.empty() ? why : path + ": " + why;
}

std::string
checkIntervals(const std::string &path, std::uint64_t cycles,
               std::uint64_t period)
{
    std::ifstream in(path);
    if (!in)
        return "missing interval file " + path;
    std::uint64_t lines = 0;
    for (std::string s; std::getline(in, s);)
        ++lines;
    const std::uint64_t want = 1 + (cycles + period - 1) / period;
    if (lines != want)
        return fmt("%s: %" PRIu64 " lines, want header + ceil(%" PRIu64
                   " / %" PRIu64 ") = %" PRIu64,
                   path.c_str(), lines, cycles, period, want);
    return "";
}

std::string
checkSameReport(const std::string &a, const std::string &b)
{
    if (a == b)
        return "";
    std::size_t i = 0;
    while (i < a.size() && i < b.size() && a[i] == b[i])
        ++i;
    return fmt("reports differ at byte %zu (%zu vs %zu bytes)", i,
                  a.size(), b.size());
}

int
selfTest(const std::string &workDir)
{
    namespace fs = std::filesystem;
    fs::create_directories(workDir);
    const std::string trace = workDir + "/selftest.trace.txt";
    const std::uint64_t period = 1000;

    std::vector<ctcp::campaign::Job> jobs = ctcp::campaign::parseMatrix(
        "bench=gzip;strategy=fdrt;budget=20000");
    jobs[0].config.obs.traceTextPath = trace;
    jobs[0].config.obs.traceFilter = "retire";
    ctcp::campaign::Options opt;
    opt.jobs = 1;
    opt.accounting = true;
    opt.intervalDir = workDir;
    opt.intervalCycles = period;
    const ctcp::campaign::Report report =
        ctcp::campaign::runCampaign(jobs, opt);
    if (!report.jobs[0].ok()) {
        std::printf("selftest: job failed: %s\n",
                    report.jobs[0].error.c_str());
        return 1;
    }
    const ctcp::SimResult &res = report.jobs[0].result;
    const JobFacts facts = factsOf(jobs[0], res);
    const unsigned clusters = jobs[0].config.cluster.numClusters;
    const unsigned width = jobs[0].config.cluster.clusterWidth;
    const std::string intervals =
        workDir + "/" + ctcp::campaign::jobFileStem(jobs[0].label, 0) +
        ".intervals.csv";

    int untripped = 0;
    auto expect = [&](const char *what, const std::string &clean,
                      const std::string &doctored) {
        const bool ok = clean.empty() && !doctored.empty();
        std::printf("selftest %-34s clean: %s; doctored: %s\n", what,
                    clean.empty() ? "passes" : clean.c_str(),
                    doctored.empty() ? "NOT TRIPPED" : doctored.c_str());
        if (!ok)
            ++untripped;
    };

    JobFacts f = facts;
    f.stores += 1;
    expect("store count off by one", checkJob(facts), checkJob(f));

    f = facts;
    f.cycles = f.retired / (f.machineWidth + 1);
    expect("IPC above the machine width", checkJob(facts), checkJob(f));

    f = facts;
    f.retired = f.budget - 1;
    expect("retired below the budget", checkJob(facts), checkJob(f));

    f = facts;
    f.loads = f.loads + f.robEntries + 1;
    expect("dmem.loads above the ROB bound", checkJob(facts),
           checkJob(f));

    const std::string json = report.toJson();
    std::string changed = json;
    changed[changed.size() / 2] ^= 1;
    expect("report with one changed byte", checkSameReport(json, json),
           checkSameReport(json, changed));

    {
        std::ifstream in(trace);
        std::ofstream out(trace + ".cut");
        std::uint64_t n = 0;
        for (std::string s; std::getline(in, s); ++n)
            if (n != res.instructions / 2)
                out << s << '\n';
    }
    expect("trace missing one retire event",
           checkRetireTrace(trace, res.instructions),
           checkRetireTrace(trace + ".cut", res.instructions));

    ctcp::SimResult acct = res;
    acct.accounting["cluster2.slots.useful"] += 1;
    expect("accounting slot added", checkAccounting(res, clusters, width),
           checkAccounting(acct, clusters, width));

    expect("interval rows for other cycles",
           checkIntervals(intervals, res.cycles, period),
           checkIntervals(intervals, res.cycles + period, period));

    fs::remove(trace);
    fs::remove(trace + ".cut");
    fs::remove(intervals);
    return untripped;
}

} // namespace perfbench
