/**
 * @file
 * Per-layer metrics of a traced run. The learner layer is probed
 * directly through ActorCritic, Adam and clipGradNorm at the
 * workload's minibatch shape; the env, core and proc numbers come from
 * the decorators and getrusage() around traced epochs; the serve
 * numbers from cell completions. Every workload prints the same names.
 */

#ifndef TTDBENCH_LAYERS_HPP
#define TTDBENCH_LAYERS_HPP

#include <cstdint>
#include <vector>

#include "discovery.hpp"
#include "trace.hpp"

namespace ttdbench {

/** Median per-call times of the PPO update's kernels at one shape. */
struct LearnerProbe
{
    double forwardUs = 0.0;     ///< ActorCritic::forward, one minibatch
    double backwardUs = 0.0;    ///< zeroGrad + backward, one minibatch
    double clipUs = 0.0;        ///< paramBlocks + clipGradNorm
    double adamUs = 0.0;        ///< Adam::step
    double forwardOneUs = 0.0;  ///< forwardOne, the evaluation path
    long minibatchesPerEpoch = 0;

    /** Estimated update time per epoch: all four minibatch calls times
     *  the minibatches an epoch runs. */
    double updateEstMs() const;
};

/** Probe the learner of @p cell's shape; inputs are drawn from @p seed. */
LearnerProbe probeLearner(const Cell &cell, std::uint64_t seed);

/** Serve-layer observations: completed cells and their slots. */
struct ServeStats
{
    int slots = 1;            ///< cells that can run at once
    double gridWallS = 0.0;   ///< submission -> report
    std::vector<double> cellWallS;
    std::vector<double> completionS;  ///< completion times, any origin
    double attempts = 0.0;            ///< summed over cells
    double ckptBytes = 0.0;           ///< summed over cells
    double reentryS = 0.0;
    double cellsAdopted = 0.0;
};

/** Process counters over a traced region. */
struct ProcDelta
{
    Usage before;
    Usage after;
};

/** Assemble the per-layer metric list (BENCHMARK.json order). */
Metrics layerMetrics(const LearnerProbe &probe, const TraceState &trace,
                     const ProcDelta &proc, const ServeStats &serve,
                     double trace_overhead_ratio);

} // namespace ttdbench

#endif // TTDBENCH_LAYERS_HPP
