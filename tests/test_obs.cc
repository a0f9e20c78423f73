/**
 * @file
 * Observability subsystem tests: sink filtering and draining, writer
 * failure modes, and — against a real 100k-instruction gzip/FDRT run —
 * well-formedness of the Chrome trace_event JSON, presence of every
 * event kind, per-instruction stage ordering, per-kind cycle
 * monotonicity, interval-CSV row count (exactly ceil(cycles / N)),
 * byte-identical reruns, and campaign telemetry determinism across
 * worker counts.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "config/presets.hh"
#include "core/simulator.hh"
#include "obs/sink.hh"
#include "obs/writers.hh"
#include "workload/workload.hh"

namespace ctcp {
namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/**
 * Minimal recursive-descent JSON syntax checker. Accepts exactly the
 * JSON grammar (objects, arrays, strings with escapes, numbers,
 * true/false/null); valid() requires the whole input to be one value.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s_(text) {}

    bool
    valid()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos_ == s_.size();
    }

  private:
    bool eof() const { return pos_ >= s_.size(); }
    char peek() const { return s_[pos_]; }

    void
    skipWs()
    {
        while (!eof() && std::isspace(static_cast<unsigned char>(peek())))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        for (const char *p = word; *p; ++p, ++pos_)
            if (eof() || peek() != *p)
                return false;
        return true;
    }

    bool
    string()
    {
        if (eof() || peek() != '"')
            return false;
        ++pos_;
        while (!eof() && peek() != '"') {
            if (peek() == '\\') {
                ++pos_;
                if (eof())
                    return false;
            }
            ++pos_;
        }
        if (eof())
            return false;
        ++pos_;   // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos_;
        if (!eof() && peek() == '-')
            ++pos_;
        while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (!eof() && peek() == '.') {
            ++pos_;
            while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-'))
                ++pos_;
            while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        return pos_ > start;
    }

    bool
    value()
    {
        if (eof())
            return false;
        switch (peek()) {
          case '{': {
            ++pos_;
            skipWs();
            if (!eof() && peek() == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                if (!string())
                    return false;
                skipWs();
                if (eof() || peek() != ':')
                    return false;
                ++pos_;
                skipWs();
                if (!value())
                    return false;
                skipWs();
                if (!eof() && peek() == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (eof() || peek() != '}')
                return false;
            ++pos_;
            return true;
          }
          case '[': {
            ++pos_;
            skipWs();
            if (!eof() && peek() == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                if (!value())
                    return false;
                skipWs();
                if (!eof() && peek() == ',') {
                    ++pos_;
                    continue;
                }
                break;
            }
            if (eof() || peek() != ']')
                return false;
            ++pos_;
            return true;
          }
          case '"':
            return string();
          case 't':
            return literal("true");
          case 'f':
            return literal("false");
          case 'n':
            return literal("null");
          default:
            return number();
        }
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** ObsWriter that captures drained events in memory. */
class CaptureWriter : public ObsWriter
{
  public:
    explicit CaptureWriter(std::vector<ObsEvent> &out, int *ends = nullptr)
        : out_(out), ends_(ends)
    {
    }

    void write(const ObsEvent &event) override { out_.push_back(event); }

    void
    end() override
    {
        if (ends_)
            ++*ends_;
    }

  private:
    std::vector<ObsEvent> &out_;
    int *ends_;
};

/** The acceptance-criterion configuration: 100k-instruction gzip/FDRT. */
SimConfig
tracedConfig()
{
    SimConfig cfg = baseConfig();
    cfg.assign.strategy = AssignStrategy::Fdrt;
    cfg.instructionLimit = 100'000;
    return cfg;
}

constexpr std::uint64_t kInterval = 1'000;

struct TraceRun
{
    std::string jsonPath;
    std::string textPath;
    std::string csvPath;
    SimResult result;
};

/** Deletes its files when destroyed (at process exit for a static). */
struct RemoveOnExit
{
    std::vector<std::string> paths;
    RemoveOnExit() = default;
    RemoveOnExit(const RemoveOnExit &) = delete;
    RemoveOnExit &operator=(const RemoveOnExit &) = delete;
    ~RemoveOnExit()
    {
        for (const std::string &path : paths)
            std::remove(path.c_str());
    }
};

/** One shared traced run; the expensive part happens once per binary. */
const TraceRun &
tracedRun()
{
    static const TraceRun run = [] {
        TraceRun r;
        // Paths are per-process: ctest runs each gtest case as its own
        // process, and under -j several of them rebuild this run
        // concurrently — fixed names would race on the same files.
        const std::string dir = testing::TempDir();
        const std::string tag =
            "ctcp_obs_run." + std::to_string(::getpid());
        r.jsonPath = dir + tag + ".trace.json";
        r.textPath = dir + tag + ".trace.txt";
        r.csvPath = dir + tag + ".intervals.csv";
        // Every test process writes ~130 MB here; drop it at exit.
        static RemoveOnExit cleanup;
        cleanup.paths = {r.jsonPath, r.textPath, r.csvPath};
        SimConfig cfg = tracedConfig();
        cfg.obs.traceEventsPath = r.jsonPath;
        cfg.obs.traceTextPath = r.textPath;
        cfg.obs.intervalPath = r.csvPath;
        cfg.obs.intervalCycles = kInterval;
        const Program program = workloads::build("gzip");
        CtcpSimulator sim(cfg, program);
        r.result = sim.run();
        return r;
    }();
    return run;
}

/** One parsed line of ObsTextWriter output. */
struct TextEvent
{
    std::uint64_t cycle = 0;
    std::string kind;
    std::uint64_t seq = invalidSeqNum;
};

std::vector<TextEvent>
parseTextTrace(const std::string &path)
{
    std::vector<TextEvent> events;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        TextEvent ev;
        fields >> ev.cycle >> ev.kind;
        std::string tok;
        while (fields >> tok)
            if (tok.rfind("seq=", 0) == 0)
                ev.seq = std::stoull(tok.substr(4));
        events.push_back(ev);
    }
    return events;
}

// ---------------------------------------------------------------------
// Sink unit tests
// ---------------------------------------------------------------------

TEST(ObsSink, ParseFilterAcceptsAllAndEmpty)
{
    EXPECT_EQ(ObsSink::parseFilter(""), ObsSink::allKinds());
    EXPECT_EQ(ObsSink::parseFilter("all"), ObsSink::allKinds());
}

TEST(ObsSink, ParseFilterSelectsNamedKinds)
{
    const std::uint32_t mask = ObsSink::parseFilter("fetch,retire,tc-hit");
    ObsSink sink;
    sink.setFilter(mask);
    EXPECT_TRUE(sink.enabled(ObsKind::Fetch));
    EXPECT_TRUE(sink.enabled(ObsKind::Retire));
    EXPECT_TRUE(sink.enabled(ObsKind::TcHit));
    EXPECT_FALSE(sink.enabled(ObsKind::Issue));
    EXPECT_FALSE(sink.enabled(ObsKind::Mem));
}

TEST(ObsSink, ParseFilterRejectsUnknownKind)
{
    EXPECT_THROW(ObsSink::parseFilter("fetch,warp"), std::invalid_argument);
    EXPECT_THROW(ObsSink::parseFilter("FETCH"), std::invalid_argument);
    EXPECT_THROW(ObsSink::parseFilter("fetch,,retire"),
                 std::invalid_argument);
}

TEST(ObsSink, ParseFilterErrorNamesTheKindAndListsValidOnes)
{
    // The message is user-facing --trace-filter feedback: it must name
    // the offending token and enumerate the whole taxonomy.
    try {
        ObsSink::parseFilter("fetch,warp");
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("'warp'"), std::string::npos) << msg;
        for (unsigned k = 0; k < numObsKinds; ++k)
            EXPECT_NE(msg.find(obsKindName(static_cast<ObsKind>(k))),
                      std::string::npos)
                << obsKindName(static_cast<ObsKind>(k));
    }
}

TEST(ObsSink, EveryKindNameRoundTrips)
{
    for (unsigned k = 0; k < numObsKinds; ++k) {
        const ObsKind kind = static_cast<ObsKind>(k);
        const std::uint32_t mask = ObsSink::parseFilter(obsKindName(kind));
        EXPECT_EQ(mask, 1u << k) << obsKindName(kind);
    }
}

TEST(ObsSink, RecordRespectsFilterAndCountsPerKind)
{
    std::vector<ObsEvent> seen;
    ObsSink sink;
    sink.addWriter(std::make_unique<CaptureWriter>(seen));
    sink.setFilter(ObsSink::parseFilter("fetch,retire"));

    ObsEvent fetch;
    fetch.kind = ObsKind::Fetch;
    ObsEvent issue;
    issue.kind = ObsKind::Issue;
    ObsEvent retire;
    retire.kind = ObsKind::Retire;
    sink.record(fetch);
    sink.record(issue);    // filtered out
    sink.record(retire);
    sink.record(fetch);
    sink.finish();

    EXPECT_EQ(sink.recorded(), 3u);
    EXPECT_EQ(sink.recorded(ObsKind::Fetch), 2u);
    EXPECT_EQ(sink.recorded(ObsKind::Retire), 1u);
    EXPECT_EQ(sink.recorded(ObsKind::Issue), 0u);
    ASSERT_EQ(seen.size(), 3u);
    EXPECT_EQ(seen[0].kind, ObsKind::Fetch);
    EXPECT_EQ(seen[1].kind, ObsKind::Retire);
    EXPECT_EQ(seen[2].kind, ObsKind::Fetch);
}

TEST(ObsSink, RingDrainsToWriterWhenFull)
{
    std::vector<ObsEvent> seen;
    ObsSink sink(4);
    sink.addWriter(std::make_unique<CaptureWriter>(seen));
    ObsEvent ev;
    ev.kind = ObsKind::Fetch;
    for (std::uint64_t i = 0; i < 4; ++i) {
        ev.cycle = i;
        sink.record(ev);
    }
    // Capacity reached: the ring drained without an explicit flush.
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen[3].cycle, 3u);
}

TEST(ObsSink, FinishIsIdempotent)
{
    std::vector<ObsEvent> seen;
    int ends = 0;
    ObsSink sink;
    sink.addWriter(std::make_unique<CaptureWriter>(seen, &ends));
    ObsEvent ev;
    ev.kind = ObsKind::Retire;
    sink.record(ev);
    sink.finish();
    sink.finish();
    EXPECT_EQ(seen.size(), 1u);
    EXPECT_EQ(ends, 1);
}

TEST(ObsWriters, UnwritablePathThrows)
{
    const std::string bad = "/no-such-dir-ctcp/obs.out";
    EXPECT_THROW(ChromeTraceWriter writer(bad), std::runtime_error);
    EXPECT_THROW(ObsTextWriter writer(bad), std::runtime_error);
}

// ---------------------------------------------------------------------
// End-to-end trace contents (shared 100k gzip/FDRT run)
// ---------------------------------------------------------------------

TEST(ObsTrace, ChromeJsonIsWellFormed)
{
    const std::string json = readFile(tracedRun().jsonPath);
    ASSERT_FALSE(json.empty());
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid());
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Track metadata Perfetto uses to lay out and label the rows.
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(ObsTrace, EveryEventKindAppears)
{
    const TraceRun &run = tracedRun();
    const std::string json = readFile(run.jsonPath);
    for (unsigned k = 0; k < numObsKinds; ++k) {
        const ObsKind kind = static_cast<ObsKind>(k);
        if (kind == ObsKind::Snapshot)
            continue; // only emitted by watchdog pipeline-state dumps
        const std::string cat =
            std::string("\"cat\":\"") + obsKindName(kind) + "\"";
        EXPECT_NE(json.find(cat), std::string::npos) << obsKindName(kind);
        const auto metric = run.result.metrics.find(
            std::string("obs.events.") + obsKindName(kind));
        ASSERT_NE(metric, run.result.metrics.end()) << obsKindName(kind);
        EXPECT_GT(metric->second, 0.0) << obsKindName(kind);
    }
}

TEST(ObsTrace, PipelineStagesOrderedPerInstruction)
{
    // Every instruction must move through the pipeline in order:
    // fetch <= rename <= issue <= execute <= complete <= retire.
    const std::vector<TextEvent> events =
        parseTextTrace(tracedRun().textPath);
    ASSERT_FALSE(events.empty());
    const std::vector<std::string> order = {
        "fetch", "rename", "issue", "execute", "complete", "retire"};
    std::map<std::uint64_t, std::map<std::string, std::uint64_t>> first;
    for (const TextEvent &ev : events)
        if (ev.seq != invalidSeqNum && !first[ev.seq].count(ev.kind))
            first[ev.seq][ev.kind] = ev.cycle;

    std::size_t checked = 0;
    for (const auto &[seq, stages] : first) {
        for (std::size_t i = 0; i + 1 < order.size(); ++i) {
            const auto a = stages.find(order[i]);
            const auto b = stages.find(order[i + 1]);
            if (a == stages.end() || b == stages.end())
                continue;
            ASSERT_LE(a->second, b->second)
                << "seq " << seq << ": " << order[i] << "@" << a->second
                << " after " << order[i + 1] << "@" << b->second;
            ++checked;
        }
    }
    // The run retires ~100k instructions; the ordering must have been
    // exercised across essentially all of them.
    EXPECT_GT(checked, 100'000u);
}

TEST(ObsTrace, CyclesMonotonePerKind)
{
    // Events are drained in record order, and every kind except "mem"
    // is stamped with the current cycle at emission, so each kind's
    // cycle sequence must be non-decreasing. ("mem" is stamped with
    // the load's service cycle, which can complete out of order.)
    const std::vector<TextEvent> events =
        parseTextTrace(tracedRun().textPath);
    ASSERT_FALSE(events.empty());
    std::map<std::string, std::uint64_t> last;
    for (const TextEvent &ev : events) {
        if (ev.kind == "mem")
            continue;
        const auto it = last.find(ev.kind);
        if (it != last.end()) {
            ASSERT_GE(ev.cycle, it->second) << ev.kind;
        }
        last[ev.kind] = ev.cycle;
    }
    EXPECT_GT(last.size(), 10u);   // most kinds seen
}

TEST(ObsTrace, IntervalCsvHasExactlyCeilRows)
{
    const TraceRun &run = tracedRun();
    const std::string csv = readFile(run.csvPath);
    const std::size_t lines =
        static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n'));
    const std::uint64_t expected =
        (run.result.cycles + kInterval - 1) / kInterval;
    EXPECT_EQ(lines, expected + 1);   // header + ceil(cycles / N) rows
    EXPECT_EQ(csv.rfind("cycle,ipc,", 0), 0u);
    const auto rows = run.result.metrics.find("interval.rows");
    ASSERT_NE(rows, run.result.metrics.end());
    EXPECT_EQ(static_cast<std::uint64_t>(rows->second), expected);
}

TEST(ObsTrace, RerunIsByteIdentical)
{
    const TraceRun &run = tracedRun();
    const std::string dir = testing::TempDir();
    SimConfig cfg = tracedConfig();
    cfg.obs.traceEventsPath = dir + "ctcp_obs_rerun.trace.json";
    cfg.obs.traceTextPath = dir + "ctcp_obs_rerun.trace.txt";
    cfg.obs.intervalPath = dir + "ctcp_obs_rerun.intervals.csv";
    cfg.obs.intervalCycles = kInterval;
    const Program program = workloads::build("gzip");
    CtcpSimulator sim(cfg, program);
    const SimResult result = sim.run();

    EXPECT_EQ(result.cycles, run.result.cycles);
    EXPECT_EQ(readFile(cfg.obs.traceEventsPath), readFile(run.jsonPath));
    EXPECT_EQ(readFile(cfg.obs.traceTextPath), readFile(run.textPath));
    EXPECT_EQ(readFile(cfg.obs.intervalPath), readFile(run.csvPath));
    for (const std::string *path :
         {&cfg.obs.traceEventsPath, &cfg.obs.traceTextPath,
          &cfg.obs.intervalPath})
        std::remove(path->c_str());
}

TEST(ObsTrace, TracingDoesNotPerturbTheSimulation)
{
    // The observer must not change what it observes: an untraced run
    // of the same configuration produces identical results.
    const TraceRun &run = tracedRun();
    const Program program = workloads::build("gzip");
    CtcpSimulator sim(tracedConfig(), program);
    const SimResult result = sim.run();
    EXPECT_EQ(result.cycles, run.result.cycles);
    EXPECT_EQ(result.instructions, run.result.instructions);
    EXPECT_EQ(result.metrics.at("fwd.total"),
              run.result.metrics.at("fwd.total"));
    EXPECT_EQ(result.metrics.at("tc.hits"),
              run.result.metrics.at("tc.hits"));
    // Telemetry-only keys exist only when telemetry is on.
    EXPECT_EQ(result.metrics.count("obs.events.fetch"), 0u);
    EXPECT_EQ(result.metrics.count("interval.rows"), 0u);
}

TEST(ObsTrace, SimResultJsonCarriesMetricsMap)
{
    const std::string json = tracedRun().result.toJson();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.valid());
    EXPECT_NE(json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(json.find("\"fwd.total\""), std::string::npos);
    EXPECT_NE(json.find("\"obs.events.assign\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Campaign telemetry
// ---------------------------------------------------------------------

TEST(ObsCampaign, SanitizeLabelIsFilesystemSafe)
{
    EXPECT_EQ(campaign::sanitizeLabel("gzip/base/fdrt"),
              "gzip_base_fdrt");
    EXPECT_EQ(campaign::sanitizeLabel("a b@3:4"), "a_b_3_4");
    EXPECT_EQ(campaign::sanitizeLabel("ok-1.x_y"), "ok-1.x_y");
    EXPECT_EQ(campaign::sanitizeLabel(""), "job");
}

TEST(ObsCampaign, TelemetryDeterministicAcrossWorkerCounts)
{
    // The acceptance bar: per-job interval CSVs and event traces are
    // byte-identical whether the campaign runs serially or on 4
    // workers.
    std::vector<campaign::Job> jobs;
    for (const char *bench : {"gzip", "twolf"}) {
        for (AssignStrategy s :
             {AssignStrategy::BaseSlotOrder, AssignStrategy::Fdrt}) {
            SimConfig cfg = baseConfig();
            cfg.assign.strategy = s;
            cfg.instructionLimit = 20'000;
            jobs.push_back(campaign::makeJob(
                std::string(bench) + "/" + assignStrategyName(s), bench,
                cfg));
        }
    }

    const std::string base = testing::TempDir() + "ctcp_obs_campaign";
    const std::string dir1 = base + "_serial";
    const std::string dir4 = base + "_parallel";
    std::filesystem::create_directories(dir1);
    std::filesystem::create_directories(dir4);

    campaign::Options serial;
    serial.jobs = 1;
    serial.traceEventsDir = dir1;
    serial.intervalDir = dir1;
    serial.intervalCycles = 500;
    campaign::Options parallel = serial;
    parallel.jobs = 4;
    parallel.traceEventsDir = dir4;
    parallel.intervalDir = dir4;

    const campaign::Report r1 = campaign::runCampaign(jobs, serial);
    const campaign::Report r4 = campaign::runCampaign(jobs, parallel);
    ASSERT_EQ(r1.failed(), 0u);
    ASSERT_EQ(r4.failed(), 0u);
    EXPECT_EQ(r1.toJson(), r4.toJson());

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const campaign::Job &job = jobs[i];
        const std::string stem = campaign::jobFileStem(job.label, i);
        const std::string csv1 =
            readFile(dir1 + "/" + stem + ".intervals.csv");
        EXPECT_FALSE(csv1.empty()) << job.label;
        EXPECT_EQ(csv1, readFile(dir4 + "/" + stem + ".intervals.csv"))
            << job.label;
        const std::string trace1 =
            readFile(dir1 + "/" + stem + ".trace.json");
        EXPECT_FALSE(trace1.empty()) << job.label;
        EXPECT_EQ(trace1, readFile(dir4 + "/" + stem + ".trace.json"))
            << job.label;
        JsonChecker checker(trace1);
        EXPECT_TRUE(checker.valid()) << job.label;
    }
}

TEST(ObsCampaign, UnwritableTelemetryPathFailsJobInIsolation)
{
    SimConfig cfg = baseConfig();
    cfg.instructionLimit = 5'000;
    cfg.obs.traceEventsPath = "/no-such-dir-ctcp/job.trace.json";
    const std::vector<campaign::Job> jobs = {
        campaign::makeJob("bad", "gzip", cfg),
        campaign::makeJob("good", "gzip",
                          [] {
                              SimConfig ok = baseConfig();
                              ok.instructionLimit = 5'000;
                              return ok;
                          }()),
    };
    const campaign::Report report = campaign::runCampaign(jobs);
    EXPECT_EQ(report.failed(), 1u);
    EXPECT_FALSE(report.at("bad").ok());
    EXPECT_NE(report.at("bad").error.find("cannot open"),
              std::string::npos);
    EXPECT_NE(report.at("bad").error.find("/no-such-dir-ctcp/"),
              std::string::npos);
    EXPECT_TRUE(report.at("good").ok());
}

} // namespace
} // namespace ctcp
