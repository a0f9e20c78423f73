/**
 * @file
 * Figure 5 — expected speedup from removing dependency-related
 * latencies on the base machine: all forwarding latency, only the
 * critical (last-arriving) forwarded value's latency, only intra-trace
 * forwarding latency, only inter-trace forwarding latency, and the
 * register-file read latency.
 *
 * Paper values (harmonic means): No Fwd Lat +41.8%, No Crit Fwd Lat
 * +37.2%, No Intra-Trace +17.7%, No Inter-Trace +15.5%, No RF ~0%.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Figure 5: Speedup From Removing Certain Latencies",
           "HM: NoFwd 1.418, NoCritFwd 1.372, NoIntra 1.177, "
           "NoInter 1.155, NoRF ~1.0",
           budget);

    struct Mode
    {
        const char *label;
        std::function<void(AblationConfig &)> apply;
    };
    const std::vector<Mode> modes = {
        {"No Fwd Lat",
         [](AblationConfig &a) { a.zeroAllForwardLatency = true; }},
        {"No Crit Fwd Lat",
         [](AblationConfig &a) { a.zeroCriticalForwardLatency = true; }},
        {"No Intra-Trace Lat",
         [](AblationConfig &a) { a.zeroIntraTraceForwardLatency = true; }},
        {"No Inter-Trace Lat",
         [](AblationConfig &a) { a.zeroInterTraceForwardLatency = true; }},
        {"No RF Lat",
         [](AblationConfig &a) { a.zeroRegisterFileLatency = true; }},
    };

    std::vector<std::string> headers = {"benchmark"};
    for (const Mode &m : modes)
        headers.push_back(m.label);
    TextTable table(headers);

    MatrixHarness runs(budget, jobsFromArgs(argc, argv));
    for (const std::string &bench : selectedSix()) {
        runs.add(bench, baseConfig(), "base");
        for (const Mode &m : modes) {
            SimConfig cfg = baseConfig();
            m.apply(cfg.ablation);
            runs.add(bench, cfg, m.label);
        }
    }
    runs.run();

    std::vector<std::vector<double>> speedups(modes.size());
    for (const std::string &bench : selectedSix()) {
        const SimResult &base = runs.at(bench, "base");
        table.row(bench);
        for (std::size_t m = 0; m < modes.size(); ++m) {
            const SimResult &r = runs.at(bench, modes[m].label);
            const double speedup =
                static_cast<double>(base.cycles) /
                static_cast<double>(r.cycles);
            table.cell(speedup, 3);
            speedups[m].push_back(speedup);
        }
    }
    table.row("HM");
    for (std::size_t m = 0; m < modes.size(); ++m)
        table.cell(harmonicMean(speedups[m]), 3);
    std::printf("%s", table.render().c_str());
    return 0;
}
