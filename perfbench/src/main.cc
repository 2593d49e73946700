/**
 * @file
 * vrex_perfbench: closed-loop load generator of the vrex streaming
 * engine. One invocation runs one named workload and prints, as its
 * last stdout line, one JSON object with `correct`, `attempted`,
 * `failed` and `metrics` (end-to-end metrics, or per-layer metrics
 * with --trace 1). See perfbench/README.md.
 *
 *   vrex_perfbench --workload edge-stream --seed 1 --seconds 10 \
 *                  --trace 0 [--trace-out trace.json]
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hh"

namespace
{

int
usage(const char *msg)
{
    std::fprintf(stderr,
                 "vrex_perfbench: %s\n"
                 "usage: vrex_perfbench --workload "
                 "edge-stream|serve-mix|resume-churn --seed N "
                 "--seconds S --trace 0|1 [--trace-out PATH]\n",
                 msg);
    return 2;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return !text.empty() && end && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        double num = 0.0;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--trace-out") {
            opt.traceOut = value;
        } else if (!parseNumber(value, num)) {
            return usage(("bad value for " + flag).c_str());
        } else if (flag == "--seed") {
            if (num < 0)
                return usage("--seed must be >= 0");
            opt.seed = static_cast<uint64_t>(num);
        } else if (flag == "--seconds") {
            if (!(num > 0 && num <= 600))
                return usage("--seconds must be in (0, 600]");
            opt.seconds = num;
        } else if (flag == "--trace") {
            if (num != 0 && num != 1)
                return usage("--trace must be 0 or 1");
            opt.trace = num == 1;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }

    std::unique_ptr<perfbench::Workload> workload;
    if (opt.workload == "edge-stream")
        workload = perfbench::makeEdgeStream(opt);
    else if (opt.workload == "serve-mix")
        workload = perfbench::makeServeMix(opt);
    else if (opt.workload == "resume-churn")
        workload = perfbench::makeResumeChurn(opt);
    else
        return usage("unknown --workload");

    perfbench::Report report;
    try {
        perfbench::runWorkload(*workload, opt, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "vrex_perfbench: %s failed: %s\n",
                     opt.workload.c_str(), e.what());
        return 1;
    }
    if (opt.trace && !opt.traceOut.empty()) {
        if (!perfbench::tracer::writeJson(opt.traceOut)) {
            std::fprintf(stderr, "vrex_perfbench: cannot write %s\n",
                         opt.traceOut.c_str());
            return 1;
        }
        std::printf("trace: %s\n", opt.traceOut.c_str());
    }
    report.print(opt.trace);
    return 0;
}
