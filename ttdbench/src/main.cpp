/**
 * @file
 * ttdbench: the time-to-discovery benchmark (README.md).
 *
 *     ttdbench --workload paper_discovery|bakeoff_discovery|fleet_grid
 *              --seed N --seconds S --trace 0|1
 *              [--out-dir DIR]
 *
 * Prints a human-readable report, writes the full result JSON to
 * DIR/<workload>_seed<N>_trace<T>.json, and ends stdout with one JSON
 * line {"correct", "attempted", "failed", "metrics"}: end-to-end
 * metrics with --trace 0, per-layer metrics with --trace 1. Exits 1 when
 * the correctness gate fails, 2 on a usage or set-up error.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <sched.h>

#include "rl/mat.hpp"
#include "workload.hpp"

namespace {

using namespace ttdbench;

std::string
environmentJson(const Options &opt, const double load[3])
{
    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc = sched_getaffinity(0, sizeof set, &set) == 0
                          ? CPU_COUNT(&set)
                          : -1;
    const char *commit = std::getenv("TTDBENCH_GIT_COMMIT");
    std::ostringstream os;
    os << "{\"nproc\": " << nproc
       << ", \"build_type\": " << jsonString(TTDBENCH_BUILD_TYPE)
       << ", \"compiler\": " << jsonString(TTDBENCH_COMPILER)
       << ", \"matmul_backend\": " << jsonString(autocat::matmulBackend())
       << ", \"git_commit\": " << jsonString(commit ? commit : "unknown")
       << ", \"loadavg_start\": [" << jsonNumber(load[0]) << ", "
       << jsonNumber(load[1]) << ", " << jsonNumber(load[2]) << "]"
       << ", \"workload\": " << jsonString(opt.workload)
       << ", \"seed\": " << opt.seed
       << ", \"seconds\": " << jsonNumber(opt.seconds)
       << ", \"trace\": " << (opt.trace ? 1 : 0) << "}";
    return os.str();
}

void
printTable(const char *title, const Metrics &metrics)
{
    std::printf("%s\n", title);
    for (const Metric &m : metrics)
        std::printf("  %-30s %16.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "ttdbench: %s\nusage: ttdbench --workload "
                 "paper_discovery|bakeoff_discovery|fleet_grid --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    opt.outDir = ".bench_build/ttdbench/out";
    opt.daemonPath = TTDBENCH_RUNNER_DAEMON;
    std::map<std::string, std::string> args;
    for (int i = 1; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    try {
        for (const auto &[key, value] : args) {
            if (key == "--workload")
                opt.workload = value;
            else if (key == "--seed")
                opt.seed = std::stoull(value);
            else if (key == "--seconds")
                opt.seconds = std::stod(value);
            else if (key == "--trace")
                opt.trace = std::stoi(value) != 0;
            else if (key == "--out-dir")
                opt.outDir = value;
            else
                return usage(("unknown option " + key).c_str());
        }
    } catch (const std::exception &) {
        return usage("malformed option value");
    }

    using Runner = WorkloadResult (*)(const Options &);
    const std::map<std::string, Runner> workloads = {
        {"paper_discovery", runPaperDiscovery},
        {"bakeoff_discovery", runBakeoffDiscovery},
        {"fleet_grid", runFleetGrid},
    };
    const auto it = workloads.find(opt.workload);
    if (it == workloads.end())
        return usage(("unknown workload '" + opt.workload + "'").c_str());

    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3)
        load[0] = load[1] = load[2] = -1.0;
    WorkloadResult res;
    std::string env;
    try {
        std::filesystem::create_directories(opt.outDir);
        env = environmentJson(opt, load);
        res = it->second(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ttdbench: %s\n", e.what());
        return 2;
    }

    const double fail_ratio =
        res.attempted > 0 ? static_cast<double>(res.failed) /
                                static_cast<double>(res.attempted)
                          : 1.0;
    std::ostringstream full;
    full << "{\"benchmark\": \"ttdbench\",\n\"environment\": " << env
         << ",\n\"correct\": " << (res.correct() ? "true" : "false")
         << ", \"attempted\": " << res.attempted
         << ", \"failed\": " << res.failed
         << ", \"cell_fail_ratio\": " << jsonNumber(fail_ratio)
         << ",\n\"metrics\": " << metricsJson(res.metrics)
         << ",\n\"counts\": " << metricsJson(res.counts)
         << ",\n\"failures\": [";
    for (std::size_t i = 0; i < res.failures.size(); ++i)
        full << (i ? ", " : "") << jsonString(res.failures[i]);
    full << "],\n\"cells\": " << res.cellsJson
         << ",\n\"breakdown\": " << res.breakdownJson << "}\n";
    const std::string path = opt.outDir + "/" + opt.workload + "_seed" +
                             std::to_string(opt.seed) + "_trace" +
                             (opt.trace ? "1" : "0") + ".json";
    std::ofstream(path) << full.str();

    std::printf("ttdbench %s seed=%llu trace=%d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
    std::printf("environment %s\n", env.c_str());
    printTable(opt.trace ? "per-layer metrics" : "end-to-end metrics",
               res.metrics);
    Metrics counts = res.counts;
    counts.push_back({"cell_fail_ratio", fail_ratio, "failed/attempted"});
    printTable("counts", counts);
    for (const std::string &f : res.failures)
        std::printf("FAILED %s\n", f.c_str());
    std::printf("result file %s\n", path.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                res.correct() ? "true" : "false", res.attempted, res.failed,
                metricsJson(res.metrics).c_str());
    std::fflush(stdout);
    return res.correct() ? 0 : 1;
}
