#include <algorithm>
#include <cstdio>
#include <mutex>
#include <stdexcept>

#include "bench.hh"

namespace perfbench {

namespace {

struct Record
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

std::mutex g_mutex;
std::vector<Record> g_spans; // guarded by g_mutex
bool g_enabled = false; // set before any worker starts
thread_local int t_current = -1;

} // namespace

void
Spans::enable(bool on)
{
    g_enabled = on;
}

int
Spans::open(const std::string &name, int parent)
{
    if (!g_enabled)
        return -1;
    const double start = nowSeconds();
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans.push_back({name, start, start, parent});
    return static_cast<int>(g_spans.size() - 1);
}

void
Spans::close(int id)
{
    if (id < 0)
        return;
    const double end = nowSeconds();
    std::lock_guard<std::mutex> lock(g_mutex);
    g_spans[static_cast<std::size_t>(id)].end = end;
}

int
Spans::current()
{
    return t_current;
}

std::map<std::string, Spans::Summary>
Spans::summarize()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    std::vector<std::vector<std::pair<double, double>>> children(
        g_spans.size());
    for (const Record &r : g_spans)
        if (r.parent >= 0)
            children[static_cast<std::size_t>(r.parent)].push_back(
                {r.start, r.end});

    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const Record &r = g_spans[i];
        // Children may run concurrently (campaign workers), so subtract
        // the union of their intervals, clipped to the parent's.
        std::vector<std::pair<double, double>> &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0, reach = r.start;
        for (auto [s, e] : kids) {
            s = std::max(s, reach);
            e = std::min(e, r.end);
            if (e > s) {
                covered += e - s;
                reach = e;
            }
        }
        Summary &sum = out[r.name];
        ++sum.count;
        sum.total += r.end - r.start;
        sum.self += r.end - r.start - covered;
    }
    return out;
}

void
Spans::write(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        throw std::runtime_error("cannot write spans to " + path);
    std::lock_guard<std::mutex> lock(g_mutex);
    std::fputs("[\n", f);
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const Record &r = g_spans[i];
        std::fprintf(f,
                     "%s{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                     "\"start\":%.9f,\"end\":%.9f}",
                     i ? ",\n" : "", i, r.name.c_str(), r.parent, r.start,
                     r.end);
    }
    std::fputs("\n]\n", f);
    std::fclose(f);
}

Span::Span(const std::string &name, int parent)
    : id_(Spans::open(name, parent)), saved_(t_current)
{
    if (id_ >= 0)
        t_current = id_;
}

Span::~Span()
{
    Spans::close(id_);
    t_current = saved_;
}

} // namespace perfbench
