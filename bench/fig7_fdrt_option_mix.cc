/**
 * @file
 * Figure 7 — distribution of FDRT assignment options (Table 5): A
 * (critical intra-trace producer only), B (inter-trace chain member
 * only), C (both), D (producer with an intra-trace consumer only), E
 * (no identifiable relations), plus instructions skipped because no
 * nearby slot was free.
 *
 * Paper values (averages): A 37%, B 18%, C 9%, D 11%, E ~24%,
 * skipped <1%.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Figure 7: FDRT Critical Input Distribution (options A-E)",
           "averages: A 37, B 18, C 9, D 11, E 24, skipped <1",
           budget);

    MatrixHarness runs(budget, jobsFromArgs(argc, argv));
    for (const std::string &bench : selectedSix())
        runs.add(bench, withStrategy(baseConfig(), AssignStrategy::Fdrt),
                 "fdrt");
    runs.run();

    TextTable table({"benchmark", "A intra", "B chain", "C both",
                     "D consumer", "E none", "skipped"});
    double sums[6] = {0, 0, 0, 0, 0, 0};
    for (const std::string &bench : selectedSix()) {
        const SimResult &r = runs.at(bench, "fdrt");
        table.row(bench)
            .percentCell(r.pctOptionA)
            .percentCell(r.pctOptionB)
            .percentCell(r.pctOptionC)
            .percentCell(r.pctOptionD)
            .percentCell(r.pctOptionE)
            .percentCell(r.pctSkipped);
        sums[0] += r.pctOptionA;
        sums[1] += r.pctOptionB;
        sums[2] += r.pctOptionC;
        sums[3] += r.pctOptionD;
        sums[4] += r.pctOptionE;
        sums[5] += r.pctSkipped;
    }
    table.row("Average");
    for (double s : sums)
        table.percentCell(s / 6.0);
    std::printf("%s", table.render().c_str());
    return 0;
}
