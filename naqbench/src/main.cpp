/**
 * @file
 * naqbench: the benchmark binary. Runs one workload, checks its
 * outputs, and prints human-readable lines followed by one JSON result
 * line. run.py (the benchmark's command) builds this binary, validates
 * that line against BENCHMARK.json and re-prints it.
 *
 *     naqbench --workload corpus|loss-sweep --seed N --seconds S
 *              --trace 0|1 [--tiny] [--out-dir DIR]
 *
 * Exit status: 0 when every check passed, 1 when a check failed, 2 on
 * usage errors.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

using namespace naqbench;

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "naqbench: %s\nusage: naqbench --workload "
                 "corpus|loss-sweep --seed N --seconds S --trace "
                 "0|1 [--tiny] [--out-dir DIR]\n",
                 why);
    return 2;
}

std::string
json_str(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out + "\"";
}

std::string
host_json(const Config &cfg)
{
    return "{\"nproc\":" + std::to_string(nproc()) +
           ",\"compiler\":" + json_str(NAQBENCH_COMPILER) +
           ",\"build_type\":" + json_str(NAQBENCH_BUILD_TYPE) +
           ",\"flags\":" + json_str(NAQBENCH_CXX_FLAGS) +
           ",\"workload\":" + json_str(cfg.workload) +
           ",\"seed\":" + std::to_string(cfg.seed) +
           ",\"seconds\":" + std::to_string(cfg.seconds) +
           ",\"trace\":" + (cfg.trace ? "1" : "0") + "}";
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Config cfg;
    bool have_workload = false, have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--tiny") {
            cfg.tiny = true;
            continue;
        }
        const char *v = value();
        if (!v)
            return usage(("missing value for " + arg).c_str());
        char *end = nullptr;
        if (arg == "--workload") {
            cfg.workload = v;
            have_workload = true;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(v, &end, 10);
            have_seed = end && *end == '\0' && end != v;
            if (!have_seed)
                return usage("--seed expects an integer");
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(v, &end);
            if (!(end && *end == '\0') || !(cfg.seconds > 0.0))
                return usage("--seconds expects a positive number");
        } else if (arg == "--trace") {
            if (std::strcmp(v, "0") && std::strcmp(v, "1"))
                return usage("--trace expects 0 or 1");
            cfg.trace = v[0] == '1';
        } else if (arg == "--out-dir") {
            cfg.out_dir = v;
        } else {
            return usage(("unknown argument " + arg).c_str());
        }
    }
    if (!have_workload || !have_seed)
        return usage("--workload and --seed are required");
    // The sweep spec format parses seeds as signed 64-bit integers.
    cfg.seed &= 0x7fffffffffffffffull;

    Outcome (*run)(const Config &, SpanLog &) = nullptr;
    if (cfg.workload == "corpus")
        run = run_corpus;
    else if (cfg.workload == "loss-sweep")
        run = run_loss_sweep;
    else
        return usage(("unknown workload " + cfg.workload).c_str());

    std::error_code ec;
    std::filesystem::create_directories(cfg.out_dir, ec);
    if (ec)
        return usage(("cannot create " + cfg.out_dir).c_str());

    const std::string host = host_json(cfg);
    std::printf("host: %s\n", host.c_str());
    std::fflush(stdout);

    SpanLog spans(cfg.trace);
    Outcome out;
    try {
        out = run(cfg, spans);
    } catch (const std::exception &e) {
        out.fail(std::string("workload aborted: ") + e.what());
        out.attempted = std::max<size_t>(out.attempted, 1);
    }

    if (cfg.trace) {
        const std::string path = cfg.out_dir + "/spans-" + cfg.workload +
                                 "-" + std::to_string(cfg.seed) + ".json";
        if (spans.write(path, host))
            out.note("spans: " + std::to_string(spans.spans().size()) +
                     " written to " + path);
        else
            out.fail("cannot write spans to " + path);
    }

    for (const std::string &line : out.notes)
        std::printf("%s\n", line.c_str());
    for (const std::string &line : out.failures)
        std::printf("FAILED: %s\n", line.c_str());
    out.attempted = std::max<size_t>(out.attempted, 1);
    std::printf("error_ratio: %zu / %zu\n", out.failed, out.attempted);
    for (const Metric &m : out.metrics)
        std::printf("metric %-22s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    bool finite = true;
    std::string metrics;
    for (const Metric &m : out.metrics) {
        finite = finite && std::isfinite(m.value);
        metrics += std::string(metrics.empty() ? "" : ",") +
                   json_str(m.name) + ":{\"value\":" + number(m.value) +
                   ",\"unit\":" + json_str(m.unit) + "}";
    }
    const bool correct = out.failed == 0;
    std::printf("{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,"
                "\"metrics\":{%s}}\n",
                correct ? "true" : "false", out.attempted, out.failed,
                metrics.c_str());
    std::fflush(stdout);
    return correct && finite ? 0 : 1;
}
