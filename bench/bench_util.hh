/**
 * @file
 * Shared plumbing for the table/figure reproduction harnesses.
 *
 * Every harness accepts:
 *   argv[1] (optional)  instruction budget per run (default 300000)
 *   argv[2] (optional)  worker threads (default 0 = one per hardware
 *                       thread)
 *
 * Every harness queues its (benchmark x configuration) runs on a
 * MatrixHarness, which executes them concurrently through the campaign
 * engine; aggregation is deterministic, so a harness prints the same
 * table for any worker count.
 */

#ifndef CTCPSIM_BENCH_BENCH_UTIL_HH
#define CTCPSIM_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "campaign/campaign.hh"
#include "common/logging.hh"
#include "config/presets.hh"
#include "stats/stats.hh"
#include "stats/table.hh"
#include "workload/workload.hh"

namespace ctcp::bench {

/** Instruction budget from argv (default 300k per run). */
inline std::uint64_t
budgetFromArgs(int argc, char **argv, std::uint64_t fallback = 300'000)
{
    if (argc > 1) {
        const std::uint64_t v = std::strtoull(argv[1], nullptr, 10);
        if (v > 0)
            return v;
    }
    return fallback;
}

/** Worker threads from argv (default 0 = one per hardware thread). */
inline unsigned
jobsFromArgs(int argc, char **argv)
{
    if (argc > 2)
        return static_cast<unsigned>(
            std::strtoul(argv[2], nullptr, 10));
    return 0;
}

/** Base config with a strategy applied. */
inline SimConfig
withStrategy(SimConfig cfg, AssignStrategy s, unsigned issue_latency = 4)
{
    cfg.assign.strategy = s;
    cfg.assign.issueTimeLatency = issue_latency;
    return cfg;
}

/**
 * A (benchmark x configuration) matrix executed through the campaign
 * engine. Queue runs with add(), execute them all with run(), then
 * read results back by (benchmark, tag) while assembling tables.
 */
class MatrixHarness
{
  public:
    /**
     * @param budget  instruction budget applied to every run
     * @param jobs    worker threads (0 = one per hardware thread)
     */
    explicit MatrixHarness(std::uint64_t budget, unsigned jobs = 0)
        : budget_(budget)
    {
        options_.jobs = jobs;
    }

    /** Queue @p cfg for @p bench under @p tag (duplicates ignored). */
    void
    add(const std::string &bench, SimConfig cfg, const std::string &tag)
    {
        const Key key{bench, tag};
        if (index_.count(key))
            return;
        cfg.instructionLimit = budget_;
        index_[key] = jobs_.size();
        jobs_.push_back(
            campaign::makeJob(bench + "/" + tag, bench, std::move(cfg)));
    }

    /** Execute every queued run. fatal()s if any job fails. */
    void
    run()
    {
        report_ = campaign::runCampaign(jobs_, options_);
        for (const campaign::JobOutcome &out : report_.jobs)
            if (!out.ok())
                ctcp_fatal("campaign job '%s' failed: %s",
                           out.label.c_str(), out.error.c_str());
    }

    /** Result of the run queued under (bench, tag). */
    const SimResult &
    at(const std::string &bench, const std::string &tag) const
    {
        const auto it = index_.find(Key{bench, tag});
        ctcp_assert(it != index_.end(), "no queued run '%s/%s'",
                    bench.c_str(), tag.c_str());
        return report_.jobs[it->second].result;
    }

  private:
    using Key = std::pair<std::string, std::string>;

    std::uint64_t budget_;
    campaign::Options options_;
    std::vector<campaign::Job> jobs_;
    std::map<Key, std::size_t> index_;
    campaign::Report report_;
};

/** The six benchmarks of the paper's in-depth analysis. */
inline const std::vector<std::string> &
selectedSix()
{
    return workloads::selectedSix();
}

/** Standard header line for a harness. */
inline void
banner(const char *experiment, const char *paper_summary,
       std::uint64_t budget)
{
    std::printf("== %s ==\n", experiment);
    std::printf("paper reference: %s\n", paper_summary);
    std::printf("instructions per run: %llu\n\n",
                static_cast<unsigned long long>(budget));
}

} // namespace ctcp::bench

#endif // CTCPSIM_BENCH_BENCH_UTIL_HH
