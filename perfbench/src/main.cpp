// perfbench: one run of one workload of the ETS toolchain benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// The last line of standard output is one JSON object with `correct`,
// `attempted`, `failed` and `metrics`: the end-to-end metrics with
// `--trace 0`, the per-layer metrics with `--trace 1`.  A human-readable
// summary (including the other metric set, for the tracing overhead) goes
// to standard error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "harness.hpp"

namespace {

void print_metrics(std::FILE* out,
                   const std::map<std::string, perfbench::Metric>& metrics) {
    bool first = true;
    for (const auto& [name, metric] : metrics) {
        std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     first ? "" : ", ", name.c_str(), metric.value,
                     metric.unit.c_str());
        first = false;
    }
}

int usage(const char* message) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
                 message);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunOptions options;
    options.work_dir = ".";
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
    if (argc % 2 == 0) return usage("arguments come in --flag value pairs");
    try {
        options.workload = args.at("--workload");
        options.seed = std::stoull(args.at("--seed"));
        options.seconds = std::stod(args.at("--seconds"));
        options.trace = std::stoi(args.at("--trace")) != 0;
        if (args.contains("--work-dir")) options.work_dir = args["--work-dir"];
    } catch (const std::exception&) {
        return usage("missing or malformed argument");
    }

    perfbench::RunResult result;
    try {
        result = perfbench::run_benchmark(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }

    std::fprintf(stderr, "perfbench %s seed=%llu: %zu rounds, %zu/%zu failed\n",
                 options.workload.c_str(),
                 static_cast<unsigned long long>(options.seed), result.rounds,
                 result.failed, result.attempted);
    for (const auto& problem : result.problems)
        std::fprintf(stderr, "  problem: %s\n", problem.c_str());
    const auto& other = options.trace ? result.end_to_end : result.per_layer;
    for (const auto& [name, metric] : other)
        std::fprintf(stderr, "  %-28s %14.6g %s\n", name.c_str(), metric.value,
                     metric.unit.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                result.correct ? "true" : "false", result.attempted,
                result.failed);
    print_metrics(stdout, options.trace ? result.per_layer : result.end_to_end);
    std::printf("}}\n");
    return 0;
}
