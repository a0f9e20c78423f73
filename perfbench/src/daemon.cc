/**
 * @file
 * A ctcpd child process driven over its unix socket with the
 * service's own client (service::httpRequest).
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "service/client.hh"
#include "service/shard_coordinator.hh"

extern char **environ;

namespace perfbench {

namespace {

/** Value of header @p name; parseResponse lower-cases header names. */
std::string
header(const ctcp::service::HttpResponse &resp, const std::string &name)
{
    for (const auto &[key, value] : resp.headers)
        if (key == name)
            return value;
    return "";
}

} // namespace

Daemon::Daemon(const std::string &ctcpdPath, const std::string &dir,
               unsigned workers)
    : socket_(dir + "/ctcpd.sock")
{
    std::filesystem::create_directories(dir);
    const std::string stateDir = dir + "/state";
    const std::string log = dir + "/ctcpd.log";
    const std::string nworkers = std::to_string(workers);
    std::vector<std::string> args = {ctcpdPath,   "--socket",    socket_,
                                     "--state-dir", stateDir,    "--workers",
                                     nworkers};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, ctcpdPath.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
        throw std::runtime_error("cannot spawn " + ctcpdPath);
    pid_ = pid;
}

Daemon::~Daemon()
{
    if (pid_ <= 0)
        return;
    ::kill(pid_, SIGTERM);
    // Graceful shutdown finishes in-flight jobs; the benchmark only
    // stops a daemon after its runs ended, so this is quick. Escalate
    // rather than leave a process behind.
    for (int i = 0; i < 200; ++i) {
        if (::waitpid(pid_, nullptr, WNOHANG) == pid_)
            return;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
}

bool
Daemon::waitReady(double timeout)
{
    const double until = nowSeconds() + timeout;
    while (nowSeconds() < until) {
        ctcp::service::HttpResponse resp;
        std::string error;
        if (ctcp::service::httpRequest(socket_, "GET", "/v1/ping", "",
                                       resp, error) &&
            resp.status == 200)
            return true;
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;   // exited early: nothing left to stop
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
}

double
Daemon::peakRssMb() const
{
    return perfbench::peakRssMb(std::to_string(pid_));
}

bool
Daemon::request(const std::string &method, const std::string &target,
                const std::string &body, ctcp::service::HttpResponse &resp,
                const char *what, double *seconds)
{
    Span span(std::string("service.") + what);
    std::string error;
    const double t = nowSeconds();
    const bool ok = ctcp::service::httpRequest(socket_, method, target,
                                               body, resp, error);
    if (seconds != nullptr)
        *seconds = nowSeconds() - t;
    return ok;
}

Daemon::Run
Daemon::run(const std::string &spec)
{
    Run run;
    ctcp::service::HttpResponse resp;
    ++run.requests;
    if (!request("POST", "/v1/runs", spec, resp, "submit",
                 &run.submitSeconds) ||
        resp.status != 201) {
        run.error = "submit failed: " + resp.body;
        return run;
    }
    const std::size_t at = resp.body.find("\"id\":\"");
    if (at == std::string::npos) {
        run.error = "no run id in " + resp.body;
        return run;
    }
    run.id = resp.body.substr(at + 6, resp.body.find('"', at + 6) - at - 6);

    std::string events;
    std::string offset = "0";
    while (true) {
        double took = 0.0;
        ++run.requests;
        if (!request("GET",
                     "/v1/runs/" + run.id + "/events?from=" + offset +
                         "&wait=5",
                     "", resp, "events", &took) ||
            resp.status != 200) {
            run.error = "events failed: " + resp.body;
            return run;
        }
        run.pollSeconds.push_back(took);
        events += resp.body;
        offset = header(resp, "x-ctcp-next-offset");
        const std::string state = header(resp, "x-ctcp-run-state");
        if (resp.body.empty() &&
            (state == "done" || state == "cancelled" || state == "error"))
            break;
    }

    ++run.requests;
    if (!request("GET", "/v1/runs/" + run.id + "/report", "", resp,
                 "report", &run.reportSeconds) ||
        resp.status != 200) {
        run.error = "report failed: " + resp.body;
        return run;
    }
    run.report = resp.body;

    ctcp::service::ParsedChunk chunk =
        ctcp::service::parseJournalChunk(events);
    if (chunk.corruptLines != 0 || chunk.torn)
        run.error = "corrupt event stream";
    for (auto &entry : chunk.entries)
        run.records.push_back(std::move(entry.record));
    return run;
}

double
Daemon::metric(const std::string &family)
{
    ctcp::service::HttpResponse resp;
    if (!request("GET", "/v1/metrics", "", resp, "metrics") ||
        resp.status != 200)
        return -1.0;
    std::istringstream in(resp.body);
    for (std::string line; std::getline(in, line);) {
        if (line.compare(0, family.size(), family) == 0 &&
            line.size() > family.size() && line[family.size()] == ' ')
            return std::strtod(line.c_str() + family.size() + 1, nullptr);
    }
    return -1.0;
}

} // namespace perfbench
