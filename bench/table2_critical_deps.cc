/**
 * @file
 * Table 2 — critical data-forwarding dependencies on the base machine:
 * the share of forwarded dependencies that are critical (the
 * consumer's last-arriving input) and, of those, the share that cross
 * trace boundaries.
 *
 * Paper values: % critical avg 83.4 (78.6..86.6); % of critical that
 * are inter-trace avg 27.8 (24.0..35.4).
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Table 2: Critical Data Forwarding Dependencies",
           "% deps critical avg 83.4; % critical inter-trace avg 27.8",
           budget);

    MatrixHarness runs(budget, jobsFromArgs(argc, argv));
    for (const std::string &bench : selectedSix())
        runs.add(bench, baseConfig(), "base");
    runs.run();

    TextTable table({"benchmark", "% deps critical",
                     "% critical inter-trace"});
    double sum_crit = 0.0, sum_inter = 0.0;
    for (const std::string &bench : selectedSix()) {
        const SimResult &r = runs.at(bench, "base");
        table.row(bench)
            .percentCell(r.pctDepsCritical)
            .percentCell(r.pctCritInterTrace);
        sum_crit += r.pctDepsCritical;
        sum_inter += r.pctCritInterTrace;
    }
    table.row("Avg")
        .percentCell(sum_crit / 6.0)
        .percentCell(sum_inter / 6.0);
    std::printf("%s", table.render().c_str());
    return 0;
}
