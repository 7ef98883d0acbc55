/**
 * @file
 * What a workload run takes and what it reports. main.cpp picks the
 * workload by name, runs it, and prints the result.
 */

#ifndef TTDBENCH_WORKLOAD_HPP
#define TTDBENCH_WORKLOAD_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace ttdbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;  ///< untraced runs repeat passes this long
    bool trace = false;
    std::string outDir;      ///< result files and scratch directories
    std::string daemonPath;  ///< runner_daemon executable (fleet_grid)
};

struct WorkloadResult
{
    /** Cells attempted and cells that failed the correctness gate
     *  (cell_fail_ratio = failed / attempted). */
    long attempted = 0;
    long failed = 0;
    /** Why cells failed, one line each. */
    std::vector<std::string> failures;

    /** End-to-end metrics (untraced run) or per-layer metrics (traced
     *  run), in BENCHMARK.json order. */
    Metrics metrics;
    /** Reported but not gated: counts that repeat exactly run to run
     *  (steps_to_discovery) and the plain wall-time sums. */
    Metrics counts;

    /** Per-cell outcomes as a JSON array; self-time breakdown as a JSON
     *  object (traced runs). */
    std::string cellsJson = "[]";
    std::string breakdownJson = "{}";

    bool correct() const { return failed == 0 && attempted > 0; }

    void
    fail(const std::string &why)
    {
        ++failed;
        failures.push_back(why);
    }
};

WorkloadResult runPaperDiscovery(const Options &options);
WorkloadResult runBakeoffDiscovery(const Options &options);
WorkloadResult runFleetGrid(const Options &options);

} // namespace ttdbench

#endif // TTDBENCH_WORKLOAD_HPP
