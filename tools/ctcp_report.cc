/**
 * @file
 * ctcp_report — render a run/campaign JSON report as static HTML.
 *
 * Reads a SimResult::toJson() or campaign Report::toJson() document
 * (produced with --accounting for the full picture) and writes one
 * self-contained HTML page: cycle-accounting bars, forwarding
 * heatmaps, and IPC sparklines from optional interval CSVs.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/atomic_file.hh"
#include "obs/report.hh"

namespace {

void
usage(const char *prog)
{
    std::printf(
        "usage: %s REPORT.json [options]\n"
        "\n"
        "  -o, --out FILE        output HTML path (default: REPORT\n"
        "                        path with a .html suffix)\n"
        "  --intervals PATH      interval-stats CSV file, or a\n"
        "                        directory of them (campaign\n"
        "                        --interval-stats layout), rendered\n"
        "                        as IPC sparklines\n"
        "  --title TEXT          page title (default: the input path)\n"
        "\n"
        "exit status:\n"
        "  0  report written\n"
        "  1  input unreadable or malformed\n"
        "  2  usage error\n",
        prog);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "ctcp_report: %s (try --help)\n", msg.c_str());
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string in_path;
    std::string out_path;
    std::string intervals;
    std::string title;

    auto next_arg = [&](int &i) -> const char * {
        if (i + 1 >= argc)
            die(std::string("missing value for ") + argv[i]);
        return argv[++i];
    };

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "-o" || arg == "--out") {
            out_path = next_arg(i);
        } else if (arg == "--intervals") {
            intervals = next_arg(i);
        } else if (arg == "--title") {
            title = next_arg(i);
        } else if (!arg.empty() && arg[0] == '-') {
            die("unknown option '" + arg + "'");
        } else if (in_path.empty()) {
            in_path = arg;
        } else {
            die("unexpected extra argument '" + arg + "'");
        }
    }
    if (in_path.empty())
        die("missing input report path");
    if (out_path.empty()) {
        out_path = in_path;
        const std::size_t dot = out_path.rfind('.');
        if (dot != std::string::npos && out_path.find('/', dot) ==
                std::string::npos)
            out_path.resize(dot);
        out_path += ".html";
    }
    if (title.empty())
        title = "ctcpsim report: " + in_path;

    try {
        ctcp::report::ReportView view =
            ctcp::report::fromJsonText(ctcp::readFile(in_path));
        if (!intervals.empty())
            ctcp::report::loadIntervalSeries(intervals, view);
        ctcp::atomicWriteFile(out_path,
                              ctcp::report::renderHtml(view, title));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ctcp_report: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
    return 0;
}
