/**
 * @file
 * DistScheduler: shard expanded sweep grids across a *fleet* of
 * runner_daemon workers — local children the scheduler spawns over a
 * socketpair and/or remote TCP endpoints — all speaking one frame
 * session through one transport (serve/net/transport.hpp).
 *
 * Execution model — the process-boundary analogue of util/TaskPool's
 * claiming discipline:
 *
 *  - Every cell is serialized to a job blob (serve/wire.hpp) under
 *    its grid's work directory before anything is spawned.
 *  - Each transport is one worker slot holding at most one cell
 *    attempt. A slot that frees up dynamically claims the next
 *    pending cell (grid submission order first, then the retry
 *    queue), so unequal cell costs balance across workers exactly
 *    like TaskPool's atomic cursor — work stealing without a central
 *    lock because the scheduler loop is the only claimer.
 *  - An attempt that produces a row blob has it validated here
 *    (magic/version/checksum + cell-index match) before it fills the
 *    cell's report slot. An attempt that dies (process death,
 *    connection drop, malformed frame, corrupt row) or hangs (no
 *    frame within the heartbeat timeout -> kill) consumes one
 *    attempt; the cell is requeued until maxRetries are exhausted,
 *    then recorded as a per-cell failure — the rest of the grid keeps
 *    running either way. A slot whose attempt never got past the
 *    handshake (unreachable endpoint, a child that died before its
 *    Hello) retires itself and the cell requeues for free.
 *  - Retried cells resume from their campaign checkpoint — every
 *    attempt uploads each checkpoint write back to the scheduler, so
 *    a worker death costs at most checkpointEvery epochs even when
 *    the retry lands on a different machine.
 *  - With a manifest directory set, every finished cell's row blob is
 *    also recorded in a crash-safe grid manifest
 *    (serve/manifest/manifest.hpp); a fresh scheduler process pointed
 *    at the same directory adopts the finished cells and computes
 *    only the rest.
 *
 * Determinism: cells are bit-reproducible campaigns writing disjoint,
 * index-addressed report slots, so the report content is identical to
 * an in-process `runSweepCells(..., workers=1, ...)` run with the
 * same checkpoint cadence — including runs where workers were killed,
 * daemons died, or the scheduler itself was restarted over the
 * manifest. That identity is the test oracle (test_dist, test_net,
 * the fleet-smoke CI job).
 */

#ifndef AUTOCAT_SERVE_DIST_SCHEDULER_HPP
#define AUTOCAT_SERVE_DIST_SCHEDULER_HPP

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "eval/sweep.hpp"

namespace autocat {

/** Thrown when FleetOptions::stopAfterCells aborts the scheduler
 *  mid-grid (fault-injection: a simulated scheduler death, after
 *  local children are reaped and connections dropped). The manifest
 *  keeps the finished cells; a re-entered run completes the grid. */
struct DistStopInjected : std::runtime_error
{
    explicit DistStopInjected(std::size_t cells_done)
        : std::runtime_error(
              "dist sweep: stop injected after " +
              std::to_string(cells_done) + " cell(s)"),
          cellsDone(cells_done)
    {
    }
    std::size_t cellsDone;
};

/** The worker fleet and its failure policy (shared by every grid the
 *  fleet runs). */
struct FleetOptions
{
    /** Local slots, each spawning one runner_daemon child per attempt
     *  (clamped to the total cell count; 0 = remote-only fleet). */
    int localProcesses = 0;

    /** runner_daemon executable for local slots; empty uses
     *  $AUTOCAT_RUNNER_DAEMON, else runner_daemon next to the running
     *  executable. */
    std::string runnerPath;

    /** runner_daemon endpoints, "host:port" each; one slot per
     *  daemon. */
    std::vector<std::string> endpoints;

    /** Re-spawns allowed per cell after a death or hang. */
    int maxRetries = 1;

    /** Kill an attempt that has sent no frame for this many seconds;
     *  0 disables hang detection. */
    double heartbeatTimeoutS = 0.0;

    // ----- fault-injection hooks (tests / CI harness only)
    /** Cell (by index, grids[0]) whose FIRST attempt is asked to kill
     *  itself after chaosKillAfter checkpoint uploads; -1 disables.
     *  Local slots only — TCP daemons carry their own chaos flags. */
    long chaosKillCell = -1;
    int chaosKillAfter = 1;

    /** Make chaosKillCell's first attempt hang after the handshake
     *  (exercises the heartbeat timeout) instead of self-killing. */
    bool chaosHang = false;

    /** Have chaosKillCell's first attempt SIGTERM itself instead of
     *  SIGKILL — exercises the worker's graceful-shutdown path. */
    bool chaosSigterm = false;

    /** Throw DistStopInjected after this many cells finish in this
     *  run (adopted manifest cells do not count); 0 disables. */
    std::size_t stopAfterCells = 0;
};

/** One grid submitted to the fleet (the gateway submits several). */
struct ScheduledGrid
{
    std::string name;
    std::vector<SweepCell> cells;

    /** Scratch directory for job blobs and local workers' checkpoint
     *  staging; created on demand (required, one per grid). */
    std::string workDir;

    /** Per-cell campaign checkpoint directory; empty disables
     *  mid-cell checkpoints (a retried cell then restarts — still
     *  deterministic, just slower). */
    std::string checkpointDir;

    /** Mid-cell checkpoint cadence in epochs. */
    int checkpointEvery = 0;

    /** Grid manifest directory (crash-safe re-entry); empty runs
     *  without a manifest. */
    std::string manifestDir;

    /** Wipe a manifest recorded for a different grid identity instead
     *  of refusing (GridManifest reset semantics). */
    bool manifestReset = false;

    /** Per-finished-cell observer for THIS grid (adopted manifest
     *  cells are announced too). */
    SweepProgress progress;
};

/**
 * Run every grid's cells across one shared transport fleet and return
 * one report per grid (input order). Cells are claimed in grid
 * submission order, so earlier grids effectively have priority while
 * stragglers overlap with the next grid's cells. Blocks until every
 * cell has completed, failed deterministically, or exhausted its
 * retry budget.
 *
 * @throws std::invalid_argument for fleet/grid misconfiguration (no
 *         slots, missing runner, unusable work or manifest dir, a
 *         manifest bound to a different grid without reset);
 *         std::runtime_error when every transport retired with cells
 *         still pending; DistStopInjected for stopAfterCells
 */
std::vector<SweepReport>
runSweepGridsFleet(std::vector<ScheduledGrid> grids,
                   const FleetOptions &fleet);

/** Single-grid scheduler configuration (the pre-fleet interface,
 *  kept for drivers and tests; forwards to runSweepGridsFleet). */
struct DistSweepOptions
{
    /** Local worker slots (clamped to the cell count). */
    int processes = 3;

    /** runner_daemon executable for local slots (see
     *  FleetOptions::runnerPath). */
    std::string runnerPath;

    /** runner_daemon endpoints joining the fleet ("host:port"). */
    std::vector<std::string> endpoints;

    /** Scratch directory for job blobs and local workers' checkpoint
     *  staging; created on demand (required). */
    std::string workDir;

    /** Per-cell campaign checkpoint directory; empty disables
     *  mid-cell checkpoints. */
    std::string checkpointDir;

    /** Mid-cell checkpoint cadence in epochs. */
    int checkpointEvery = 0;

    /** Grid manifest directory; empty disables re-entry. */
    std::string manifestDir;
    bool manifestReset = false;

    /** Re-spawns allowed per cell after a death or hang. */
    int maxRetries = 1;

    /** Kill an attempt that has sent no frame for this many seconds;
     *  0 disables hang detection. */
    double heartbeatTimeoutS = 0.0;

    // ----- fault-injection hooks (tests / CI harness only)
    long chaosKillCell = -1;
    int chaosKillAfter = 1;
    bool chaosHang = false;
    bool chaosSigterm = false;
    std::size_t stopAfterCells = 0;
};

/**
 * Run @p cells across the configured fleet and aggregate the report.
 * Blocks until every cell has completed, failed deterministically, or
 * exhausted its retry budget.
 *
 * @throws std::invalid_argument for a missing/non-executable
 *         runner_daemon or an unusable work directory (grid-level
 *         misconfiguration, as opposed to per-cell failures which land
 *         in the report); see runSweepGridsFleet for the full set
 */
SweepReport runSweepCellsDist(const std::string &name,
                              std::vector<SweepCell> cells,
                              const DistSweepOptions &options,
                              const SweepProgress &progress = {});

} // namespace autocat

#endif // AUTOCAT_SERVE_DIST_SCHEDULER_HPP
