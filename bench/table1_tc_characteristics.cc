/**
 * @file
 * Table 1 — trace cache characteristics of the base machine:
 * percentage of retired instructions fetched from the trace cache and
 * the mean trace-line size, per benchmark.
 *
 * Paper values: %TCInstr 80.4-92.4 (avg 88.3), trace size 12.9-13.8
 * (avg 13.2).
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Table 1: Trace Cache Characteristics",
           "%TCInstr avg 88.3 (80.4..92.4); trace size avg 13.2",
           budget);

    MatrixHarness runs(budget, jobsFromArgs(argc, argv));
    for (const std::string &bench : selectedSix())
        runs.add(bench, baseConfig(), "base");
    runs.run();

    TextTable table({"benchmark", "% TC Instr", "Trace Size"});
    double sum_pct = 0.0, sum_size = 0.0;
    for (const std::string &bench : selectedSix()) {
        const SimResult &r = runs.at(bench, "base");
        table.row(bench)
            .cell(r.pctFromTraceCache, 2)
            .cell(r.meanTraceSize, 2);
        sum_pct += r.pctFromTraceCache;
        sum_size += r.meanTraceSize;
    }
    table.row("Avg")
        .cell(sum_pct / 6.0, 2)
        .cell(sum_size / 6.0, 2);
    std::printf("%s", table.render().c_str());
    return 0;
}
