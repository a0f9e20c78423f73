/**
 * @file
 * Table 10 — intra-cluster critical data forwarding under FDRT with
 * and without leader pinning.
 *
 * Paper values: pinning raises the average same-cluster critical
 * forwarding from 58.57% to 60.51% (4 of 6 benchmarks improve; bzip2
 * improves the most).
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Table 10: Intra-Cluster Critical Forwarding vs Pinning",
           "averages: with pinning 60.51% vs no pinning 58.57%",
           budget);

    MatrixHarness runs(budget, jobsFromArgs(argc, argv));
    for (const std::string &bench : selectedSix()) {
        SimConfig pin_cfg = withStrategy(baseConfig(), AssignStrategy::Fdrt);
        pin_cfg.assign.fdrtPinning = true;
        SimConfig nopin_cfg = pin_cfg;
        nopin_cfg.assign.fdrtPinning = false;
        runs.add(bench, pin_cfg, "pin");
        runs.add(bench, nopin_cfg, "nopin");
    }
    runs.run();

    TextTable table({"benchmark", "With Pinning", "No Pinning"});
    double sp = 0, snp = 0;
    for (const std::string &bench : selectedSix()) {
        const SimResult &pin = runs.at(bench, "pin");
        const SimResult &nopin = runs.at(bench, "nopin");
        table.row(bench)
            .percentCell(pin.pctIntraClusterFwd)
            .percentCell(nopin.pctIntraClusterFwd);
        sp += pin.pctIntraClusterFwd;
        snp += nopin.pctIntraClusterFwd;
    }
    table.row("Average")
        .percentCell(sp / 6.0)
        .percentCell(snp / 6.0);
    std::printf("%s", table.render().c_str());
    return 0;
}
