/**
 * @file
 * The traced run's per-layer measurements. Each layer is timed from
 * outside, through its public API, on the six Figure 6 benchmarks'
 * committed streams; campaign, ctcpd and sharding are timed on the
 * daemon sweep's spec. Every call is wrapped in a span.
 */

#include <filesystem>
#include <stdexcept>

#include "assign/base_assignment.hh"
#include "assign/fdrt_assignment.hh"
#include "assign/friendly_assignment.hh"
#include "bench.hh"
#include "bpred/predictor.hh"
#include "campaign/matrix.hh"
#include "cluster/interconnect.hh"
#include "config/presets.hh"
#include "core/simulator.hh"
#include "func/executor.hh"
#include "mem/dmem.hh"
#include "service/shard_coordinator.hh"
#include "tracecache/fill_unit.hh"
#include "tracecache/trace_cache.hh"
#include "workload/workload.hh"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using ctcp::campaign::Job;

constexpr double ns = 1e9;
constexpr double ms = 1e3;

/** Sum of time and work over several timed loops. */
struct Tally
{
    double seconds = 0.0;
    double work = 0.0;
    double per(double scale = ns) const
    {
        return work > 0.0 ? seconds * scale / work : 0.0;
    }
};

/** Time @p body under a span; returns seconds. */
template <typename Body>
double
timed(const std::string &span, Body &&body)
{
    Span s(span);
    const double t = nowSeconds();
    body();
    return nowSeconds() - t;
}

/**
 * Feed @p stream to a fill unit with @p policy, as the simulator does
 * at retire. The criticality fields a retire-time policy reads are
 * synthesised from the stream: the critical source is the operand
 * with the youngest producer, forwarded when that producer is at most
 * 32 instructions older, inter-trace when it retired in an earlier
 * trace. Fills @p starts with the first pc of every trace after the
 * first when non-null.
 */
void
fill(const std::vector<ctcp::DynInst> &stream, const ctcp::SimConfig &cfg,
     ctcp::RetireAssignmentPolicy &policy, const std::string &span,
     Tally &tally, std::vector<ctcp::Addr> *starts,
     ctcp::TraceCache &tc)
{
    ctcp::FillUnit unit(cfg.frontEnd.traceCache, cfg.cluster.numClusters,
                        cfg.cluster.clusterWidth, tc, policy);
    ctcp::OwnedTimedInst inst;
    std::vector<std::int64_t> writer(ctcp::numArchRegs, -1);
    std::vector<ctcp::Addr> writerPc(ctcp::numArchRegs, 0);
    std::uint64_t traceStart = 0;
    std::uint64_t built = 0;
    tally.seconds += timed(span, [&] {
        for (std::size_t i = 0; i < stream.size(); ++i) {
            const ctcp::DynInst &d = stream[i];
            inst.dyn = d;
            ctcp::TimedInstCold &cold = inst.cold();
            const std::int64_t p1 = d.hasSrc1() ? writer[d.src1] : -1;
            const std::int64_t p2 = d.hasSrc2() ? writer[d.src2] : -1;
            const std::int64_t p = std::max(p1, p2);
            cold.criticalSrc = p < 0 ? 0 : (p == p1 ? 1 : 2);
            cold.criticalForwarded = p >= 0 && std::int64_t(i) - p <= 32;
            cold.criticalInterTrace =
                p >= 0 && std::uint64_t(p) < traceStart;
            cold.criticalProducerPc =
                p < 0 ? 0 : writerPc[p == p1 ? d.src1 : d.src2];
            unit.retire(inst, i / 4);
            if (d.hasDst()) {
                writer[d.dst] = std::int64_t(i);
                writerPc[d.dst] = d.pc;
            }
            if (unit.tracesBuilt() != built) {
                built = unit.tracesBuilt();
                traceStart = i + 1;
                if (starts != nullptr && i + 1 < stream.size())
                    starts->push_back(stream[i + 1].pc);
            }
        }
    });
    tally.work += static_cast<double>(built);
}

/** Strategy segment of a fig6 label, as a metric-name suffix. */
std::string
strategyKey(const std::string &label)
{
    std::string s = strategyOf(label);
    for (char &c : s)
        if (c == '-' || c == ':')
            c = '_';
    if (s.compare(0, 11, "issue_time_") == 0)
        s = "issue_time" + s.substr(11);
    return s;
}

double
runCampaignTimed(std::vector<Job> jobs, unsigned workers,
                 std::string *json = nullptr)
{
    ctcp::campaign::Options opt;
    opt.jobs = workers;
    ctcp::campaign::Report report;
    const double t = timed("campaign.runCampaign", [&] {
        report = ctcp::campaign::runCampaign(jobs, opt);
    });
    if (json)
        *json = report.toJson();
    return t;
}

} // namespace

Metrics
measureLayers(const Context &ctx)
{
    Metrics m;
    auto put = [&](const std::string &name, double value,
                   const char *unit) { m[name] = {value, unit}; };
    const ctcp::SimConfig cfg = ctcp::baseConfig();
    const std::uint64_t budget = fig6Budget;
    const std::vector<std::string> &six = ctcp::workloads::selectedSix();

    // ---- workload: one build per Figure 6 benchmark --------------------
    std::map<std::string, ctcp::Program> programs;
    double buildSeconds = 0.0;
    for (const std::string &bench : six)
        buildSeconds += timed("workload.build", [&] {
            programs.emplace(bench, ctcp::workloads::build(bench));
        });
    put("workload.build_ms", buildSeconds * ms, "ms");

    // ---- func, bpred, mem, tracecache, fill + assign --------------------
    Tally func, bpred, mem, lookup, fillBase, fillFriendly, fillFdrt;
    for (const std::string &bench : six) {
        std::vector<ctcp::DynInst> stream(budget);
        ctcp::Executor exec(programs.at(bench));
        func.seconds += timed("func.Executor::step", [&] {
            for (ctcp::DynInst &d : stream)
                exec.step(d);
        });
        func.work += static_cast<double>(budget);

        ctcp::BranchPredictor bp(cfg.bpred);
        bpred.seconds += timed("bpred.BranchPredictor", [&] {
            for (const ctcp::DynInst &d : stream) {
                if (!d.isBranchOp())
                    continue;
                if (d.isCondBranch())
                    (void)bp.peekDirection(d.pc);
                else if (d.isCallOp())
                    bp.pushRas(d.pc + 1);
                else if (d.isReturnOp())
                    (void)bp.popRas();
                else if (d.op == ctcp::Opcode::JumpReg)
                    (void)bp.peekBtb(d.pc);
                bp.update(d.pc, d.isCondBranch(), d.taken, d.targetPc);
                bpred.work += 1.0;
            }
        });

        ctcp::DataMemorySystem dmem(cfg.mem);
        mem.seconds += timed("mem.DataMemorySystem", [&] {
            ctcp::Cycle now = 0;
            for (std::size_t i = 0; i < stream.size(); ++i) {
                const ctcp::DynInst &d = stream[i];
                now = std::max<ctcp::Cycle>(now, i / 4);
                if (d.isLoadOp()) {
                    while (dmem.loadQueueFull(now))
                        ++now;
                    (void)dmem.load(d.effAddr, now);
                } else if (d.isStoreOp()) {
                    while (!dmem.store(d.effAddr, now))
                        ++now;
                } else {
                    continue;
                }
                mem.work += 1.0;
            }
        });

        ctcp::Interconnect net(cfg.cluster);
        std::vector<ctcp::Addr> starts;
        ctcp::TraceCache tc(cfg.frontEnd.traceCache);
        {
            ctcp::BaseSlotOrderAssignment policy;
            fill(stream, cfg, policy, "tracecache.FillUnit.base", fillBase,
                 &starts, tc);
        }
        {
            ctcp::TraceCache other(cfg.frontEnd.traceCache);
            ctcp::FriendlyAssignment policy(net,
                                            cfg.assign.friendlyMiddleBias);
            fill(stream, cfg, policy, "assign.FillUnit.friendly",
                 fillFriendly, nullptr, other);
        }
        {
            ctcp::TraceCache other(cfg.frontEnd.traceCache);
            ctcp::FdrtAssignment policy(net, cfg.assign.fdrtPinning,
                                        cfg.assign.fdrtChains);
            fill(stream, cfg, policy, "assign.FillUnit.fdrt", fillFdrt,
                 nullptr, other);
        }
        const ctcp::DirPredictFn predict = [&bp](ctcp::Addr pc, unsigned) {
            return bp.peekDirection(pc);
        };
        std::size_t hits = 0;
        lookup.seconds += timed("tracecache.TraceCache::lookup", [&] {
            ctcp::Cycle now = 0;
            for (ctcp::Addr pc : starts)
                hits += tc.lookup(pc, predict, ++now) != nullptr;
        });
        lookup.work += static_cast<double>(starts.size());
        if (hits == 0)
            throw std::runtime_error(bench + ": no trace-cache hit in replay");
    }
    put("func.ns_per_inst", func.per(), "ns/inst");
    put("bpred.ns_per_branch", bpred.per(), "ns/branch");
    put("mem.ns_per_access", mem.per(), "ns/access");
    put("tracecache.ns_per_lookup", lookup.per(), "ns/lookup");
    put("tracecache.ns_per_trace_built", fillBase.per(), "ns/trace");
    put("assign.ns_per_trace.friendly", fillFriendly.per(), "ns/trace");
    put("assign.ns_per_trace.fdrt", fillFdrt.per(), "ns/trace");

    // ---- core and obs: CtcpSimulator::run over the Figure 6 jobs --------
    // Each job runs plain and with each obs feature alone, back to back,
    // in forward order for even jobs and reverse order for odd ones, so
    // host drift cancels out of the per-feature differences.
    const std::vector<Job> jobs =
        ctcp::campaign::parseMatrix(fig6Spec(budget));
    fs::create_directories(ctx.workDir);
    const std::string trace = ctx.workDir + "/layer.trace.txt";
    const std::string intervals = ctx.workDir + "/layer.intervals.csv";
    struct Variant
    {
        const char *span;
        void (*apply)(ctcp::ObsConfig &, const std::string &,
                      const std::string &);
        double seconds = 0.0;
    };
    std::vector<Variant> variants = {
        {"core.CtcpSimulator::run",
         [](ctcp::ObsConfig &, const std::string &, const std::string &) {}},
        {"obs.trace",
         [](ctcp::ObsConfig &o, const std::string &t, const std::string &) {
             o.traceTextPath = t;
             o.traceFilter = "retire";
         }},
        {"obs.accounting",
         [](ctcp::ObsConfig &o, const std::string &, const std::string &) {
             o.accounting = true;
         }},
        {"obs.interval",
         [](ctcp::ObsConfig &o, const std::string &, const std::string &i) {
             o.intervalPath = i;
             o.intervalCycles = 1000;
         }},
    };
    std::map<std::string, Tally> byStrategy;
    double insts = 0.0, cycles = 0.0, events = 0.0, bytes = 0.0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        for (std::size_t k = 0; k < variants.size(); ++k) {
            Variant &v = variants[j % 2 ? variants.size() - 1 - k : k];
            ctcp::SimConfig config = jobs[j].config;
            v.apply(config.obs, trace, intervals);
            ctcp::SimResult r;
            const double t = timed(v.span, [&] {
                ctcp::CtcpSimulator sim(config,
                                        programs.at(jobs[j].benchmark));
                r = sim.run();
            });
            v.seconds += t;
            if (&v == &variants[1]) {
                for (const auto &[name, value] : r.metrics)
                    if (name.compare(0, 11, "obs.events.") == 0)
                        events += value;
                bytes += static_cast<double>(fs::file_size(trace));
            }
            if (&v != &variants[0])
                continue;
            insts += static_cast<double>(r.instructions);
            cycles += static_cast<double>(r.cycles);
            Tally &tl = byStrategy[strategyKey(jobs[j].label)];
            tl.seconds += t;
            tl.work += static_cast<double>(r.instructions);
        }
    }
    fs::remove(trace);
    fs::remove(intervals);
    const double plain = variants[0].seconds;
    for (const auto &[key, tally] : byStrategy)
        put("core.ns_per_inst." + key, tally.per(), "ns/inst");
    put("core.ns_per_cycle", plain * ns / cycles, "ns/cycle");
    put("obs.ns_per_inst.trace", (variants[1].seconds - plain) * ns / insts,
        "ns/inst");
    put("obs.ns_per_inst.accounting",
        (variants[2].seconds - plain) * ns / insts, "ns/inst");
    put("obs.ns_per_inst.interval",
        (variants[3].seconds - plain) * ns / insts, "ns/inst");
    put("obs.ns_per_event", (variants[1].seconds - plain) * ns / events,
        "ns/event");
    put("obs.trace_bytes_per_inst", bytes / insts, "B/inst");

    // Every 16th step() of the base jobs, timed alone.
    std::vector<double> steps;
    for (const Job &job : jobs) {
        if (job.config.assign.strategy !=
            ctcp::AssignStrategy::BaseSlotOrder)
            continue;
        timed("core.CtcpSimulator::step", [&] {
            ctcp::CtcpSimulator sim(job.config, programs.at(job.benchmark));
            for (std::uint64_t n = 0; !sim.done(); ++n) {
                if (n % 16 != 0) {
                    sim.step();
                    continue;
                }
                const double t = nowSeconds();
                sim.step();
                steps.push_back(nowSeconds() - t);
            }
        });
    }
    put("core.step_ns_p50", percentile(steps, 50) * ns, "ns");
    put("core.step_ns_p99", percentile(steps, 99) * ns, "ns");

    // ---- campaign -------------------------------------------------------
    const std::vector<std::uint64_t> &svcBudgets = sweepBudgets();
    std::vector<double> parses;
    for (int i = 0; i < 21; ++i)
        parses.push_back(timed("campaign.parseMatrix", [&] {
            (void)ctcp::campaign::parseMatrix(sweepSpec(svcBudgets[0]));
        }));
    put("campaign.parse_ms", median(parses) * ms, "ms");

    std::vector<Job> prebuilt = jobs;
    for (Job &job : prebuilt) {
        const ctcp::Program *p = &programs.at(job.benchmark);
        job.builder = [p] { return *p; };
    }
    const double oneWorker = runCampaignTimed(prebuilt, 1);
    const double twoWorkers = runCampaignTimed(prebuilt, 2);
    put("campaign.speedup_2w", oneWorker / twoWorkers, "ratio");

    // ---- service: one 2-worker ctcpd, the sweep at two budgets ----------
    double daemonSeconds = 0.0, batchSeconds = 0.0;
    double submit = 0.0, report = 0.0, requests = 0.0;
    std::vector<double> polls;
    double oneDaemon = 0.0;
    {
        Daemon daemon(ctx.ctcpdPath, ctx.workDir + "/svc", 2);
        if (!daemon.waitReady(60.0))
            throw std::runtime_error("ctcpd did not answer /v1/ping");
        for (std::uint64_t b : svcBudgets) {
            const std::string spec = sweepSpec(b);
            Daemon::Run run;
            const double t = timed("service.run", [&] {
                run = daemon.run(spec);
            });
            if (!run.error.empty())
                throw std::runtime_error(run.error);
            daemonSeconds += t;
            if (b == svcBudgets[0])
                oneDaemon = t;
            submit += run.submitSeconds;
            report += run.reportSeconds;
            requests += static_cast<double>(run.requests);
            polls.insert(polls.end(), run.pollSeconds.begin(),
                         run.pollSeconds.end());

            std::string batch;
            batchSeconds += runCampaignTimed(
                ctcp::campaign::parseMatrix(spec), 2, &batch);
            const std::string why = checkSameReport(run.report, batch);
            if (!why.empty())
                throw std::runtime_error("daemon report vs runCampaign: " +
                                         why);
        }
        const double n = static_cast<double>(svcBudgets.size());
        put("service.submit_ms", submit / n * ms, "ms");
        put("service.events_poll_ms_p50", median(polls) * ms, "ms");
        put("service.report_ms", report / n * ms, "ms");
        put("service.requests", requests, "count");
        put("service.daemon_over_batch", daemonSeconds / batchSeconds,
            "ratio");
        put("service.cache_hits",
            daemon.metric("ctcpd_workload_cache_hits_total"), "count");
        put("service.cache_misses",
            daemon.metric("ctcpd_workload_cache_misses_total"), "count");
        put("service.cache_entries",
            daemon.metric("ctcpd_workload_cache_entries"), "count");
        put("service.journal_bytes", daemon.metric("ctcpd_journal_bytes"),
            "B");
    }

    // ---- shard: two 1-worker daemons against the 2-worker one -----------
    {
        Daemon a(ctx.ctcpdPath, ctx.workDir + "/shard0", 1);
        Daemon b(ctx.ctcpdPath, ctx.workDir + "/shard1", 1);
        if (!a.waitReady(60.0) || !b.waitReady(60.0))
            throw std::runtime_error("shard daemon did not answer");
        ctcp::service::ShardOptions so;
        so.spec = sweepSpec(svcBudgets[0]);
        so.sockets = {a.socket(), b.socket()};
        so.journalPath = ctx.workDir + "/shard.journal";
        ctcp::service::ShardedReport sharded;
        const double t = timed("shard.runShardedCampaign", [&] {
            sharded = ctcp::service::runShardedCampaign(so);
        });
        put("shard.over_one_daemon", t / oneDaemon, "ratio");
    }
    return m;
}

} // namespace perfbench
