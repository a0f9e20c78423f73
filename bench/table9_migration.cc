/**
 * @file
 * Table 9 — instruction cluster migration under FDRT with and without
 * leader pinning: the share of revisited dynamic instructions whose
 * assigned cluster differs from their previous dynamic invocation,
 * over all instructions and over chain instructions.
 *
 * Paper values: all-instruction migration avg 4.25% (pinning) vs
 * 5.80% (no pinning); pinning cuts chain-instruction migration by
 * ~41% on average.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Table 9: Instruction Cluster Migration",
           "all-instr avg: pinning 4.25% vs no-pinning 5.80%; "
           "chain migration cut ~41% by pinning",
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

    TextTable table({"benchmark", "all (pin)", "all (no pin)",
                     "all reduction", "chain (pin)", "chain (no pin)",
                     "chain reduction"});
    double sp = 0, snp = 0, scp = 0, scnp = 0;
    for (const std::string &bench : selectedSix()) {
        const SimResult &pin = runs.at(bench, "pin");
        const SimResult &nopin = runs.at(bench, "nopin");
        auto reduction = [](double with_pin, double without) {
            return without > 0.0
                ? 100.0 * (without - with_pin) / without : 0.0;
        };
        table.row(bench)
            .percentCell(pin.migrationAllPct)
            .percentCell(nopin.migrationAllPct)
            .percentCell(reduction(pin.migrationAllPct,
                                   nopin.migrationAllPct))
            .percentCell(pin.migrationChainPct)
            .percentCell(nopin.migrationChainPct)
            .percentCell(reduction(pin.migrationChainPct,
                                   nopin.migrationChainPct));
        sp += pin.migrationAllPct;
        snp += nopin.migrationAllPct;
        scp += pin.migrationChainPct;
        scnp += nopin.migrationChainPct;
    }
    table.row("Average")
        .percentCell(sp / 6.0)
        .percentCell(snp / 6.0)
        .percentCell(snp > 0 ? 100.0 * (snp - sp) / snp : 0.0)
        .percentCell(scp / 6.0)
        .percentCell(scnp / 6.0)
        .percentCell(scnp > 0 ? 100.0 * (scnp - scp) / scnp : 0.0);
    std::printf("%s", table.render().c_str());
    return 0;
}
