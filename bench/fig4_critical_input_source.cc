/**
 * @file
 * Figure 4 — source of the most critical (last-arriving) input for
 * dynamic instructions with register inputs: the register file, the
 * producer of RS1, or the producer of RS2.
 *
 * Paper values (averages): RF 44%, RS1 31%, RS2 25%. The synthetic
 * kernels are tighter loops than full SPEC programs, so forwarding
 * covers a larger share here; the shape that matters downstream is
 * that forwarded inputs dominate criticality and RS1 > RS2.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Figure 4: Source of Most Critical Input Dependency",
           "averages: from RF 44%, from RS1 31%, from RS2 25%",
           budget);

    MatrixHarness runs(budget, jobsFromArgs(argc, argv));
    for (const std::string &bench : selectedSix())
        runs.add(bench, baseConfig(), "base");
    runs.run();

    TextTable table({"benchmark", "from RF", "from RS1", "from RS2"});
    double rf = 0, r1 = 0, r2 = 0;
    for (const std::string &bench : selectedSix()) {
        const SimResult &r = runs.at(bench, "base");
        table.row(bench)
            .percentCell(r.pctCritFromRF)
            .percentCell(r.pctCritFromRs1)
            .percentCell(r.pctCritFromRs2);
        rf += r.pctCritFromRF;
        r1 += r.pctCritFromRs1;
        r2 += r.pctCritFromRs2;
    }
    table.row("Average")
        .percentCell(rf / 6.0)
        .percentCell(r1 / 6.0)
        .percentCell(r2 / 6.0);
    std::printf("%s", table.render().c_str());
    return 0;
}
