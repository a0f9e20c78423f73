/**
 * @file
 * Shared declarations of the ctcpsim performance benchmark runner.
 *
 * The runner runs one workload (fig6_serial, fig6_observed or
 * daemon_sweep) for a fixed time and prints one JSON line with the
 * end-to-end metrics, or, in the traced run, the per-layer metrics.
 * Everything here calls the simulator's public API from outside; no
 * repository source is modified.
 */

#ifndef CTCP_PERFBENCH_BENCH_HH
#define CTCP_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "service/http.hh"

namespace perfbench {

// ---- Clock ------------------------------------------------------------

/** Seconds on the monotonic clock (CLOCK_MONOTONIC, like Python's
 *  time.monotonic, so a parent's timestamp can be compared). */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> values);
/** Nearest-rank percentile, @p p in [0, 100]. */
double percentile(std::vector<double> values, double p);

/** VmHWM of process @p pid ("self" for this process), in MiB. */
double peakRssMb(const std::string &pid = "self");

// ---- Host speed -------------------------------------------------------

/** Wall time of one slice of the reference kernel (reference.cc), a
 *  fixed piece of work that shares no code with the simulator. */
double referenceSeconds();

/**
 * Restrict the calling thread, and every thread and child process it
 * starts later, to @p n CPUs of its allowed set, beginning with the one
 * it runs on. The host's speed differs from CPU to CPU, so a gauge
 * tracks the simulation only on the CPUs the simulation runs on.
 */
void pinToCpus(unsigned n);

/** The reference slice's median time on the 4-core VM the benchmark was
 *  tuned on. Each round's time is scaled by this over the slice time
 *  gauged next to it (README, "Host speed"). */
constexpr double referenceNominalSeconds = 0.045;

// ---- Workload specs ---------------------------------------------------

/** Instructions per Figure 6 job (both fig6 workloads). */
constexpr std::uint64_t fig6Budget = 100000;
/** The Figure 6 matrix: six benchmarks x five strategies. */
std::string fig6Spec(std::uint64_t budget = fig6Budget);
/** The daemon design-space sweep at one budget (120 jobs). */
std::string sweepSpec(std::uint64_t budget);
/** The two budgets daemon_sweep submits, back to back. */
const std::vector<std::uint64_t> &sweepBudgets();

/** Strategy segment of a job label: "gzip/base/issue-time:4" ->
 *  "issue-time:4". */
std::string strategyOf(const std::string &label);

/** Deterministic work counts summed over a set of successful jobs. */
using Counts = std::map<std::string, double>;
void addCounts(Counts &into, const ctcp::SimResult &result);

// ---- Spans (traced run only) -------------------------------------------

/**
 * In-memory span recorder. A span is a named [start, end) interval
 * with an optional parent; the runner opens spans around its calls
 * into the simulator's public API. Recording is off unless enabled,
 * and then costs one mutex-guarded push per span.
 */
class Spans
{
  public:
    static void enable(bool on);
    /** Open a span; returns its id (-1 when recording is off). */
    static int open(const std::string &name, int parent);
    static void close(int id);
    /** Innermost span open on this thread (-1 if none). */
    static int current();

    /** Per name: count, total and self seconds (self = duration
     *  minus the union of its children's intervals). */
    struct Summary
    {
        std::size_t count = 0;
        double total = 0.0;
        double self = 0.0;
    };
    static std::map<std::string, Summary> summarize();
    /** Write every span as JSON to @p path. */
    static void write(const std::string &path);
};

/** RAII span; the parent defaults to the thread's innermost span. */
class Span
{
  public:
    explicit Span(const std::string &name, int parent = Spans::current());
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    int id() const { return id_; }

  private:
    int id_;
    int saved_;
};

// ---- Output checks ------------------------------------------------------

/** What the checks need to know about one successful job. */
struct JobFacts
{
    std::string label;
    std::string benchmark;
    std::uint64_t budget = 0;
    std::uint64_t retired = 0;
    std::uint64_t cycles = 0;
    double stores = 0.0;    ///< metrics["dmem.stores"]
    double loads = 0.0;     ///< metrics["dmem.loads"]
    unsigned retireWidth = 0;
    unsigned machineWidth = 0;
    unsigned robEntries = 0;
};

JobFacts factsOf(const ctcp::campaign::Job &job,
                 const ctcp::SimResult &result);

/**
 * Check one job against an Executor::step replay of the same
 * benchmark: retired count within [budget, budget + retire width],
 * 0 < IPC <= machine width, retired stores equal the replay's stores,
 * and dmem.loads within the ROB-derived bound (README). Returns "" when
 * every check holds, else the first violation.
 */
std::string checkJob(const JobFacts &facts);

/** Accounting slots sum to cycles x width for every cluster. */
std::string checkAccounting(const ctcp::SimResult &result,
                            unsigned clusters, unsigned width);

/** A retire-filtered text trace holds retire events for seq
 *  0..retired-1, in order, and nothing else. Also returns its size. */
std::string checkRetireTrace(const std::string &path,
                             std::uint64_t retired,
                             std::uint64_t *bytes = nullptr);

/** An interval CSV has a header plus ceil(cycles / period) rows. */
std::string checkIntervals(const std::string &path, std::uint64_t cycles,
                           std::uint64_t period);

/** Byte-for-byte report comparison; "" when identical. */
std::string checkSameReport(const std::string &a, const std::string &b);

/** Feed each check a doctored input; returns the number that did not
 *  trip (0 = every check can fail). */
int selfTest(const std::string &workDir);

// ---- ctcpd --------------------------------------------------------------

/** A ctcpd child process on a unix socket under a private directory. */
class Daemon
{
  public:
    Daemon(const std::string &ctcpdPath, const std::string &dir,
           unsigned workers);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Poll /v1/ping until it answers; false after @p timeout s. */
    bool waitReady(double timeout);
    double peakRssMb() const;
    const std::string &socket() const { return socket_; }

    /** One HTTP round trip, timed into @p seconds when non-null and
     *  recorded as a span named "service.<what>". */
    bool request(const std::string &method, const std::string &target,
                 const std::string &body, ctcp::service::HttpResponse &resp,
                 const char *what, double *seconds = nullptr);

    /** Outcome of one submitted run, followed to its end. */
    struct Run
    {
        std::string id;
        std::string report;
        std::vector<ctcp::campaign::JournalRecord> records;
        double submitSeconds = 0.0;
        double reportSeconds = 0.0;
        std::vector<double> pollSeconds;
        std::size_t requests = 0;
        std::string error;
    };
    /** Submit @p spec, follow its events to the end, fetch the report. */
    Run run(const std::string &spec);

    /** Scrape one sample value from /v1/metrics (-1 when absent). */
    double metric(const std::string &family);

  private:
    std::string socket_;
    int pid_ = -1;
};

// ---- Workloads ------------------------------------------------------------

struct Result
{
    bool correct = true;
    std::string error;          ///< first failed check, when !correct
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double setupSeconds = 0.0;
    std::vector<double> roundSeconds;
    /** Reference slice time gauged after each round (host speed). */
    std::vector<double> gaugeSeconds;
    double instructions = 0.0;  ///< retired by successful jobs
    double peakRssMb = 0.0;
    Counts counts;              ///< work counts of the last round

    void fail(const std::string &why)
    {
        if (correct)
            error = why;
        correct = false;
    }
};

struct Context
{
    std::string workload;
    double seconds = 10.0;
    double t0 = 0.0;            ///< process start (monotonic seconds)
    std::string workDir;        ///< scratch outputs, removed on exit
    std::string ctcpdPath;
    bool pin = false;           ///< pin to the simulating CPUs (untraced)
};

bool knownWorkload(const std::string &name);
/** Run @p ctx.workload for ctx.seconds (at least one round). */
Result runWorkload(const Context &ctx, int maxRounds = 0);

/** The traced run's per-layer metrics: name -> (value, unit). */
using Metrics = std::map<std::string, std::pair<double, std::string>>;
Metrics measureLayers(const Context &ctx);

} // namespace perfbench

#endif // CTCP_PERFBENCH_BENCH_HH
