/**
 * @file
 * Cross-request workload setup cache for the ctcpd service.
 *
 * Building a workload's Program (code generation, data-image
 * construction) is pure and deterministic — builders seed their own
 * Rng locally, which is what the golden-stats contract already relies
 * on. A batch run pays that construction once per job; a service that
 * sees the same benchmarks in spec after spec should pay it once per
 * (benchmark, instructionLimit) key and hand each job a copy of the
 * cached image. The copy (not a shared pointer into the simulator)
 * preserves the campaign engine's isolation guarantee: jobs never
 * share mutable state.
 *
 * Single-flight: each key is built once, even when several workers
 * ask for it at the same moment. The first caller inserts the entry
 * (counted as the one miss) and builds outside the lock; callers that
 * find the entry — finished or still being built — count as hits and
 * wait on the same build. A build that throws removes its entry, so a
 * failed key is never cached and the next caller tries afresh.
 *
 * Bounded LRU: the full workload registry is small (~26 programs),
 * but instructionLimit is part of the key by contract, so unbounded
 * growth across many-budget campaigns is capped.
 */

#ifndef CTCPSIM_SERVICE_WORKLOAD_CACHE_HH
#define CTCPSIM_SERVICE_WORKLOAD_CACHE_HH

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>

#include "prog/program.hh"

namespace ctcp::service {

/** Thread-safe bounded LRU of built Programs. */
class WorkloadCache
{
  public:
    explicit WorkloadCache(std::size_t max_entries = 64)
        : maxEntries_(max_entries ? max_entries : 1)
    {}

    /**
     * The Program for @p benchmark under @p instructionLimit, built
     * once on first use and cached after; a concurrent caller for a
     * key whose build is in flight waits for it. The returned pointer
     * stays valid even if the entry is evicted (shared ownership);
     * callers that need a private copy (campaign jobs) copy the
     * pointee.
     * @throws std::invalid_argument for an unknown benchmark — the
     *         same error (and message) a campaign builder raises, so
     *         cached and uncached failure reports match byte for byte;
     *         rejected before the lookup, so it never takes a slot
     * @throws whatever the build throws, to every caller waiting on it
     */
    std::shared_ptr<const Program> get(const std::string &benchmark,
                                       std::uint64_t instructionLimit);

    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
        std::size_t entries = 0;
    };

    Stats stats() const;

  private:
    struct Entry
    {
        std::string key;
        /** Ready once the first caller's build finishes or throws. */
        std::shared_future<std::shared_ptr<const Program>> program;
    };

    mutable std::mutex mutex_;
    /** Front = most recently used. */
    std::list<Entry> entries_;
    std::size_t maxEntries_;
    Stats stats_;
};

} // namespace ctcp::service

#endif // CTCPSIM_SERVICE_WORKLOAD_CACHE_HH
