#include "service/workload_cache.hh"

#include <exception>
#include <stdexcept>

#include "workload/workload.hh"

namespace ctcp::service {

std::shared_ptr<const Program>
WorkloadCache::get(const std::string &benchmark,
                   std::uint64_t instructionLimit)
{
    // An unknown name is never cached, so it is rejected before the
    // lookup and leaves the stats untouched.
    if (!workloads::exists(benchmark))
        throw std::invalid_argument("unknown benchmark '" + benchmark +
                                    "'");
    const std::string key =
        benchmark + "@" + std::to_string(instructionLimit);

    std::promise<std::shared_ptr<const Program>> promise;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->key == key) {
                // Built or still building: either way this key costs
                // no second build, so the caller counts as a hit.
                ++stats_.hits;
                entries_.splice(entries_.begin(), entries_, it);
                const auto program = it->program;
                lock.unlock();
                return program.get();
            }
        }
        ++stats_.misses;
        entries_.push_front(Entry{key, promise.get_future().share()});
        while (entries_.size() > maxEntries_) {
            entries_.pop_back();
            ++stats_.evictions;
        }
    }

    // Build outside the lock: a slow builder must not stall every
    // worker that happens to want a different key. Callers that want
    // this key meanwhile find the entry above and wait on its future.
    std::shared_ptr<const Program> program;
    try {
        program =
            std::make_shared<const Program>(workloads::build(benchmark));
    } catch (...) {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            entries_.remove_if(
                [&](const Entry &entry) { return entry.key == key; });
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
