/**
 * @file
 * Discovery cells: one seeded exploration run each, trained until its
 * greedy evaluation first passes the target accuracy (the trainUntil
 * rule). The untraced path runs the cell through TrainingSession, the
 * way explore() and sweep cells do; the traced path drives
 * PpoTrainer::runEpoch()/evaluate() over makeVecEnv()'s Sync VecEnv
 * wrapped in the timing decorators, and must reach the same
 * steps_to_discovery.
 */

#ifndef TTDBENCH_DISCOVERY_HPP
#define TTDBENCH_DISCOVERY_HPP

#include <string>
#include <vector>

#include "core/explore.hpp"
#include "decorators.hpp"
#include "speed_ref.hpp"
#include "trace.hpp"

namespace ttdbench {

struct Cell
{
    std::string name;
    autocat::ExplorationConfig config;
};

/** Parse a cell from exploration config text (config_parser keys). */
Cell makeCell(const std::string &name, const std::string &config_text);

struct CellRun
{
    std::string name;
    bool completed = false;  ///< no exception escaped
    std::string error;
    bool converged = false;
    long long stepsToDiscovery = -1;
    long long envSteps = 0;  ///< training env steps when training stopped
    int epochs = 0;
    double discoveryS = 0.0;  ///< start -> first passing evaluation
    double trainS = 0.0;      ///< start -> last epoch's evaluation
    double cellS = 0.0;       ///< start -> sequence classified
    /** Per epoch, from the previous epoch callback (the first from the
     *  cell's start): wall, user and system seconds of runEpoch() +
     *  evaluate(). */
    std::vector<WorkTimes> epochTimes;
    WorkTimes tail;  ///< last epoch callback -> sequence classified
    /** SpeedRef samples: one before the cell, one after each epoch and
     *  one after the cell. Taking them is left out of every time. */
    std::vector<HostSpeed> hostSpeed;
    double refStepS = 0.0;  ///< SpeedRef::refStepS() of the cell's shape
    double finalAccuracy = 0.0;
    std::string category = "?";
    std::string sequence;
};

/** A SpeedRef at @p cell's minibatch x hidden shape. */
SpeedRef speedRefFor(const Cell &cell);

/** Run @p cell through TrainingSession, sampling @p ref around every
 *  epoch. One reference serves a whole run, so where its buffers sit
 *  does not change with the cells run before it. */
CellRun runUntraced(const Cell &cell, SpeedRef &ref);

/** What traced cells accumulate across a pass. */
struct TraceState
{
    SpanLog log;
    EnvCounters env;
    std::vector<double> epochS;     ///< one per runEpoch()
    std::vector<double> evaluateS;  ///< one per per-epoch evaluate()
};

/** Run @p cell through PpoTrainer and the timing decorators, recording
 *  spans under a "cell" span tagged @p index. */
CellRun runTraced(const Cell &cell, int index, TraceState &state);

/** Seconds to build every cell's envs and trainer once. */
double timeSetup(const std::vector<Cell> &cells);

/** Per-cell outcomes as a JSON array. */
std::string cellRunsJson(const std::vector<CellRun> &runs);

} // namespace ttdbench

#endif // TTDBENCH_DISCOVERY_HPP
