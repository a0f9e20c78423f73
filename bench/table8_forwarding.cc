/**
 * @file
 * Table 8 — data forwarding for critical inputs under Base, Friendly
 * and FDRT assignment: (a) the percentage of critical forwarded inputs
 * satisfied within the consumer's own cluster, and (b) the mean number
 * of clusters the forwarded data traverses.
 *
 * Paper values: intra-cluster avg Base 39.7% / Friendly 56.9% /
 * FDRT 61.6%; mean distance avg Base 1.33 / Friendly 1.04(approx) /
 * FDRT shorter than Friendly on every benchmark.
 */

#include "bench/bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace ctcp;
    using namespace ctcp::bench;

    const std::uint64_t budget = budgetFromArgs(argc, argv);
    banner("Table 8: Data Forwarding For Critical Inputs",
           "intra-cluster avg: base 39.7, friendly 56.9, fdrt 61.6; "
           "fdrt always shortens distance",
           budget);

    const std::vector<std::pair<const char *, AssignStrategy>> modes = {
        {"Base", AssignStrategy::BaseSlotOrder},
        {"Friendly", AssignStrategy::Friendly},
        {"FDRT", AssignStrategy::Fdrt},
    };

    MatrixHarness runs(budget, jobsFromArgs(argc, argv));
    for (const std::string &bench : selectedSix())
        for (const auto &mode : modes)
            runs.add(bench, withStrategy(baseConfig(), mode.second),
                     mode.first);
    runs.run();

    TextTable intra({"benchmark", "Base", "Friendly", "FDRT"});
    TextTable dist({"benchmark", "Base", "Friendly", "FDRT"});
    std::vector<double> sum_intra(3, 0.0), sum_dist(3, 0.0);
    for (const std::string &bench : selectedSix()) {
        intra.row(bench);
        dist.row(bench);
        for (std::size_t m = 0; m < modes.size(); ++m) {
            const SimResult &r = runs.at(bench, modes[m].first);
            intra.percentCell(r.pctIntraClusterFwd);
            dist.cell(r.meanFwdDistance, 3);
            sum_intra[m] += r.pctIntraClusterFwd;
            sum_dist[m] += r.meanFwdDistance;
        }
    }
    intra.row("Average");
    dist.row("Average");
    for (std::size_t m = 0; m < modes.size(); ++m) {
        intra.percentCell(sum_intra[m] / 6.0);
        dist.cell(sum_dist[m] / 6.0, 3);
    }

    std::printf("a. Percentage of Intra-Cluster Forwarding\n%s\n",
                intra.render().c_str());
    std::printf("b. Average Data Forwarding Distance\n%s",
                dist.render().c_str());
    return 0;
}
