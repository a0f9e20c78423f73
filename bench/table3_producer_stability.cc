/**
 * @file
 * Table 3 — frequency of repeated forwarding producers: how often a
 * static instruction's forwarded input comes from the same producer PC
 * as its previous dynamic instance, for each source register, over all
 * forwarded inputs and over the critical inter-trace subset.
 *
 * Paper values: all-inputs RS1 avg 97.1, RS2 avg 94.5; critical
 * inter-trace RS1 avg 90.3, RS2 avg 84.7. This repeatability is what
 * makes history-based chain prediction viable (Section 3.3).
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Table 3: Frequency of Repeated Forwarding Producers",
           "all RS1 97.1 / RS2 94.5; crit inter-trace RS1 90.3 / RS2 84.7",
           budget);

    MatrixHarness runs(budget, jobsFromArgs(argc, argv));
    for (const std::string &bench : selectedSix())
        runs.add(bench, baseConfig(), "base");
    runs.run();

    TextTable table({"benchmark", "RS1 (all)", "RS2 (all)",
                     "RS1 (crit inter)", "RS2 (crit inter)"});
    double s1 = 0, s2 = 0, s3 = 0, s4 = 0;
    for (const std::string &bench : selectedSix()) {
        const SimResult &r = runs.at(bench, "base");
        table.row(bench)
            .percentCell(r.repeatRs1)
            .percentCell(r.repeatRs2)
            .percentCell(r.repeatRs1CritInter)
            .percentCell(r.repeatRs2CritInter);
        s1 += r.repeatRs1;
        s2 += r.repeatRs2;
        s3 += r.repeatRs1CritInter;
        s4 += r.repeatRs2CritInter;
    }
    table.row("Average")
        .percentCell(s1 / 6.0)
        .percentCell(s2 / 6.0)
        .percentCell(s3 / 6.0)
        .percentCell(s4 / 6.0);
    std::printf("%s", table.render().c_str());
    return 0;
}
