/**
 * @file
 * Cross-request workload setup cache for the ctcpd service.
 *
 * Building a workload's Program (code generation, data-image
 * construction) is pure and deterministic — builders seed their own
 * Rng locally, which is what the golden-stats contract already relies
 * on. A batch run pays that construction once per job; a service that
 * sees the same benchmarks in spec after spec should pay it once per
 * benchmark and hand each job a copy of the cached image. The key is
 * the name alone: workloads::build(name) takes no instruction budget,
 * so every budget of one benchmark runs the same Program. The copy
 * (not a shared pointer into the simulator) preserves the campaign
 * engine's isolation guarantee: jobs never share mutable state.
 *
 * Single-flight: each name is built once, even when several workers
 * ask for it at the same moment. The first caller inserts the entry
 * (counted as the one miss) and builds outside the lock; callers that
 * find the entry — finished or still being built — count as hits and
 * wait on the same build. A build that throws removes its entry, so a
 * failed name is never cached and the next caller tries afresh.
 *
 * Unbounded: names are checked against the workload registry before
 * the lookup, so the cache holds at most the registry's ~26 programs.
 */

#ifndef CTCPSIM_SERVICE_WORKLOAD_CACHE_HH
#define CTCPSIM_SERVICE_WORKLOAD_CACHE_HH

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "prog/program.hh"

namespace ctcp::service {

/** Thread-safe cache of built Programs, keyed by benchmark name. */
class WorkloadCache
{
  public:
    /**
     * The Program for @p benchmark, built once on first use and cached
     * after; a concurrent caller for a name whose build is in flight
     * waits for it. Callers that need a private copy (campaign jobs)
     * copy the pointee.
     * @throws std::invalid_argument for an unknown benchmark — the
     *         same error (and message) a campaign builder raises, so
     *         cached and uncached failure reports match byte for byte;
     *         rejected before the lookup, so it never takes an entry
     * @throws whatever the build throws, to every caller waiting on it
     */
    std::shared_ptr<const Program> get(const std::string &benchmark);

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::size_t entries = 0;
    };

    Stats stats() const;

  private:
    mutable std::mutex mutex_;
    /** Ready once the first caller's build finishes or throws. */
    std::map<std::string,
             std::shared_future<std::shared_ptr<const Program>>>
        entries_;
    Stats stats_;
};

} // namespace ctcp::service

#endif // CTCPSIM_SERVICE_WORKLOAD_CACHE_HH
