#include "service/workload_cache.hh"

#include <exception>
#include <stdexcept>

#include "workload/workload.hh"

namespace ctcp::service {

std::shared_ptr<const Program>
WorkloadCache::get(const std::string &benchmark)
{
    // An unknown name is never cached, so it is rejected before the
    // lookup and leaves the stats untouched.
    if (!workloads::exists(benchmark))
        throw std::invalid_argument("unknown benchmark '" + benchmark +
                                    "'");

    std::promise<std::shared_ptr<const Program>> promise;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        const auto it = entries_.find(benchmark);
        if (it != entries_.end()) {
            // Built or still building: either way this name costs no
            // second build, so the caller counts as a hit.
            ++stats_.hits;
            const auto program = it->second;
            lock.unlock();
            return program.get();
        }
        ++stats_.misses;
        entries_.emplace(benchmark, promise.get_future().share());
    }

    // Build outside the lock: a slow builder must not stall every
    // worker that happens to want a different name. Callers that want
    // this one meanwhile find the entry above and wait on its future.
    std::shared_ptr<const Program> program;
    try {
        program =
            std::make_shared<const Program>(workloads::build(benchmark));
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.erase(benchmark);
        }
        promise.set_exception(std::current_exception());
        throw;
    }
    promise.set_value(program);
    return program;
}

WorkloadCache::Stats
WorkloadCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.entries = entries_.size();
    return out;
}

} // namespace ctcp::service
