/**
 * @file
 * Host speed. The reference kernel is a fixed piece of work that shares
 * no code with the simulator, timed between rounds to gauge the host's
 * speed at the time of the run. It mixes what the simulator's hot path does: random
 * read-modify-writes over a table larger than L2, hash-map updates and
 * a binary heap of pending events, driven by data-dependent branches.
 */

#include <sched.h>

#include <cstdint>
#include <cstdio>
#include <queue>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "bench.hh"

namespace perfbench {

namespace {

/** Checksum of one slice, the same on every host. */
std::uint64_t
slice()
{
    thread_local std::vector<std::uint32_t> table(1u << 20);
    for (std::uint32_t i = 0; i < table.size(); ++i)
        table[i] = i * 2654435761u;
    std::unordered_map<std::uint32_t, std::uint64_t> counters;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        events;
    std::uint64_t x = 0x9e3779b97f4a7c15ull;
    std::uint64_t acc = 0;
    for (std::uint32_t i = 0; i < 400000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::uint32_t idx = (x >> 33) & (table.size() - 1);
        const std::uint32_t v = table[idx];
        if (v & 1)
            acc += v;
        else
            acc ^= v >> 3;
        table[idx] = v + static_cast<std::uint32_t>(acc);
        if ((i & 7) == 0)
            counters[(x >> 40) & 0x3fff] += acc;
        events.push(i + ((x >> 20) & 63));
        while (!events.empty() && events.top() <= i)
            events.pop();
    }
    return acc + counters.size() + events.size();
}

} // namespace

void
pinToCpus(unsigned n)
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed))
            cpus.push_back(cpu);
    std::size_t first = 0;
    while (first < cpus.size() && cpus[first] != sched_getcpu())
        ++first;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    for (std::size_t i = 0; i < n && i < cpus.size(); ++i)
        CPU_SET(cpus[(first + i) % cpus.size()], &pinned);
    if (sched_setaffinity(0, sizeof pinned, &pinned) != 0)
        std::fprintf(stderr, "perfbench: cannot pin to %u CPUs; the host "
                             "gauge may miss per-CPU slowdowns\n",
                     n);
}

double
referenceSeconds()
{
    thread_local const std::uint64_t expected = slice();
    const double t = nowSeconds();
    const std::uint64_t sum = slice();
    const double seconds = nowSeconds() - t;
    if (sum != expected)
        throw std::runtime_error("reference kernel is not deterministic");
    return seconds;
}

} // namespace perfbench
