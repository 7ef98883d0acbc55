#include "serve/dist_scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include <unistd.h>

#include "serve/cell_exec.hpp"
#include "serve/manifest/manifest.hpp"
#include "serve/net/transport.hpp"
#include "serve/wire.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"

namespace autocat {

namespace {

namespace fs = std::filesystem;

/** One pending attempt: which grid/cell, and which attempt this is. */
struct PendingCell
{
    std::size_t grid = 0;
    std::size_t cell = 0;
    int attempt = 1;
};

/** Scheduler-side bookkeeping for one fleet slot. */
struct SlotState
{
    bool busy = false;
    bool killed = false; ///< already told to die for a stale heartbeat
    PendingCell work;
};

/** One submitted grid plus everything the loop tracks about it. */
struct GridState
{
    ScheduledGrid grid;
    SweepReport report;
    std::optional<GridManifest> manifest;
    std::size_t done = 0;

    std::string
    jobPath(std::size_t cell) const
    {
        return grid.workDir + "/job_" + std::to_string(cell) + ".blob";
    }
};

void
ensureDirectory(const std::string &path, const char *what)
{
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec || !fs::is_directory(path)) {
        throw std::invalid_argument(
            std::string("dist sweep: cannot create ") + what + " \"" +
            path + "\"" + (ec ? ": " + ec.message() : ""));
    }
}

/** The runner_daemon local slots spawn: @p path when set, else
 *  $AUTOCAT_RUNNER_DAEMON, else runner_daemon next to the running
 *  executable (the layout CMake produces). */
std::string
resolveRunnerDaemon(const std::string &path)
{
    if (!path.empty())
        return path;
    const char *env = std::getenv("AUTOCAT_RUNNER_DAEMON");
    if (env && *env)
        return env;
    std::error_code ec;
    return (fs::read_symlink("/proc/self/exe", ec).parent_path() /
            "runner_daemon")
        .string();
}

} // namespace

std::vector<SweepReport>
runSweepGridsFleet(std::vector<ScheduledGrid> grids,
                   const FleetOptions &fleet)
{
    using Clock = std::chrono::steady_clock;
    const auto t0 = Clock::now();

    if (grids.empty())
        return {};

    std::size_t total_cells = 0;
    for (const ScheduledGrid &grid : grids)
        total_cells += grid.cells.size();

    const int local_slots = static_cast<int>(std::min<std::size_t>(
        std::max(fleet.localProcesses, 0), total_cells));
    const std::string runner = resolveRunnerDaemon(fleet.runnerPath);
    if (local_slots > 0 && ::access(runner.c_str(), X_OK) != 0) {
        throw std::invalid_argument(
            "dist sweep: runner_daemon executable not found at \"" +
            runner + "\" (set AUTOCAT_RUNNER_DAEMON)");
    }
    if (local_slots == 0 && fleet.endpoints.empty()) {
        throw std::invalid_argument(
            "dist sweep: fleet has no workers (no local processes, no "
            "endpoints)");
    }

    // ----- per-grid setup: stage jobs, open manifests, adopt rows
    std::vector<GridState> states;
    states.reserve(grids.size());
    std::deque<PendingCell> pending;

    for (std::size_t g = 0; g < grids.size(); ++g) {
        GridState state;
        state.grid = std::move(grids[g]);
        if (state.grid.workDir.empty())
            throw std::invalid_argument(
                "dist sweep: work directory not set");
        ensureDirectory(state.grid.workDir, "work directory");
        if (!state.grid.checkpointDir.empty())
            ensureDirectory(state.grid.checkpointDir,
                            "checkpoint directory");

        state.report.name = state.grid.name;
        state.report.cells.resize(state.grid.cells.size());

        // Stage every job blob up front: a crashed scheduler leaves a
        // complete, restartable job set on disk. The blobs also define
        // the grid's manifest identity.
        std::vector<std::string> job_blobs;
        job_blobs.reserve(state.grid.cells.size());
        for (const SweepCell &cell : state.grid.cells) {
            job_blobs.push_back(serializeCellJob(cell));
            atomicWriteFile(state.jobPath(cell.index),
                            job_blobs.back(), "cell job");
        }

        if (!state.grid.manifestDir.empty()) {
            state.manifest.emplace(
                state.grid.manifestDir, state.grid.name,
                gridManifestHash(job_blobs), state.grid.cells.size(),
                state.grid.manifestReset);
        }

        states.push_back(std::move(state));
        GridState &st = states.back();

        for (std::size_t i = 0; i < st.grid.cells.size(); ++i) {
            int prior_attempts = 0;
            if (st.manifest) {
                const GridManifest::CellEntry &entry =
                    st.manifest->cells()[i];
                if (entry.done) {
                    // Adopt: the recorded row IS this cell's outcome.
                    // The report keeps the scheduler's own cell struct
                    // (exactly what finish() does for live rows).
                    SweepCellResult row = entry.row;
                    row.cell = std::move(st.grid.cells[i]);
                    row.attempts = entry.failedAttempts + 1;
                    st.report.cells[i] = std::move(row);
                    ++st.done;
                    ++st.report.cellsAdopted;
                    if (st.grid.progress)
                        st.grid.progress(st.report.cells[i]);
                    continue;
                }
                prior_attempts = entry.failedAttempts;
            }
            pending.push_back({g, i, prior_attempts + 1});
        }
        if (st.report.cellsAdopted > 0) {
            AUTOCAT_LOG_INFO
                << "dist sweep: manifest " << st.manifest->dir()
                << " adopted " << st.report.cellsAdopted << "/"
                << st.grid.cells.size() << " finished cell(s)";
        }
    }

    // ----- the fleet
    std::vector<std::unique_ptr<RunnerTransport>> transports;
    for (int s = 0; s < local_slots; ++s)
        transports.push_back(RunnerTransport::local(runner, s));
    for (const std::string &endpoint : fleet.endpoints)
        transports.push_back(RunnerTransport::tcp(endpoint));
    std::vector<SlotState> slots(transports.size());

    for (GridState &state : states)
        state.report.workersUsed = static_cast<int>(transports.size());

    std::size_t done_this_run = 0;

    const auto allDone = [&] {
        for (const GridState &state : states)
            if (state.done < state.report.cells.size())
                return false;
        return true;
    };

    // Record a final (success or exhausted-retries) outcome: fill the
    // report slot and persist the verbatim row bytes to the manifest
    // (synthesizing bytes for budget-exhausted failure rows, so
    // re-entry does not retry what the budget already gave up on).
    const auto finish = [&](const PendingCell &work, SweepCellResult row,
                            std::string row_bytes) {
        GridState &state = states[work.grid];
        row.cell = std::move(state.grid.cells[work.cell]);
        state.report.cells[work.cell] = std::move(row);
        if (state.manifest) {
            if (row_bytes.empty()) // synthesized (failure) row
                row_bytes = serializeCellRow(
                    state.report.cells[work.cell]);
            state.manifest->recordRow(work.cell, row_bytes);
        }
        ++state.done;
        ++done_this_run;
        if (state.grid.progress)
            state.grid.progress(state.report.cells[work.cell]);

        if (fleet.stopAfterCells > 0 &&
            done_this_run >= fleet.stopAfterCells && !allDone()) {
            for (auto &t : transports)
                t->abandon();
            throw DistStopInjected(done_this_run);
        }
    };

    // A dead/hung/garbled attempt either requeues (at the back: the
    // rest of the grids keep flowing, the retry is picked up by the
    // next free slot — the work-stealing discipline) or exhausts the
    // cell's budget and lands as a per-cell failure row.
    const auto attemptFailed = [&](const PendingCell &work,
                                   const std::string &why) {
        GridState &state = states[work.grid];
        if (state.manifest)
            state.manifest->recordFailedAttempt(work.cell);
        if (work.attempt <= fleet.maxRetries) {
            AUTOCAT_LOG_WARN << "dist sweep: cell " << work.cell
                             << " attempt " << work.attempt
                             << " failed (" << why << "); requeueing";
            pending.push_back(
                {work.grid, work.cell, work.attempt + 1});
            return;
        }
        SweepCellResult row;
        row.error = "worker " + why + " (after " +
                    std::to_string(work.attempt) + " attempt" +
                    (work.attempt == 1 ? "" : "s") + ")";
        row.attempts = work.attempt;
        finish(work, std::move(row), "");
    };

    // An attempt delivered row bytes; they are the attempt's verdict
    // once they validate (checksum/version via deserialization, plus
    // the index match).
    const auto reapRow = [&](const PendingCell &work,
                             std::string row_bytes) {
        SweepCellResult row;
        try {
            row = deserializeCellRow(row_bytes);
        } catch (const std::exception &e) {
            attemptFailed(work, std::string("returned a bad row: ") +
                                    e.what());
            return;
        }
        if (row.cell.index != work.cell) {
            attemptFailed(work, "returned a row for cell " +
                                    std::to_string(row.cell.index));
            return;
        }
        row.attempts = work.attempt;
        finish(work, std::move(row), std::move(row_bytes));
    };

    while (!allDone()) {
        // Claim pending cells into free, still-living slots.
        bool claimed = false;
        for (std::size_t s = 0;
             s < transports.size() && !pending.empty(); ++s) {
            if (slots[s].busy || !transports[s]->alive())
                continue;
            const PendingCell next = pending.front();
            pending.pop_front();
            const GridState &state = states[next.grid];

            AttemptSpec spec;
            spec.jobPath = state.jobPath(next.cell);
            spec.workDir = state.grid.workDir;
            if (!state.grid.checkpointDir.empty()) {
                spec.checkpointPath = cellCheckpointPath(
                    state.grid.checkpointDir, next.cell);
                spec.checkpointEvery = state.grid.checkpointEvery;
            }
            // Fault injection hits the FIRST attempt only: the retry
            // must then finish the cell, which is exactly the recovery
            // path under test.
            if (next.grid == 0 &&
                static_cast<long>(next.cell) == fleet.chaosKillCell &&
                next.attempt == 1) {
                if (fleet.chaosHang)
                    spec.chaosFlags = {"--chaos-hang"};
                else
                    spec.chaosFlags = {fleet.chaosSigterm
                                           ? "--chaos-sigterm-after"
                                           : "--chaos-kill-after",
                                       std::to_string(fleet.chaosKillAfter)};
            }

            if (!transports[s]->start(spec)) {
                // Never actually started (the slot retired itself):
                // requeue at the front without consuming an attempt.
                pending.push_front(next);
                continue;
            }
            slots[s].busy = true;
            slots[s].killed = false;
            slots[s].work = next;
            claimed = true;
        }

        // Poll every busy slot (non-blocking).
        bool freed = false;
        for (std::size_t s = 0; s < transports.size(); ++s) {
            if (!slots[s].busy)
                continue;
            AttemptOutcome out = transports[s]->poll();
            if (out.kind == AttemptOutcome::Kind::Running)
                continue;
            slots[s].busy = false;
            freed = true;
            const PendingCell work = slots[s].work;
            if (out.kind == AttemptOutcome::Kind::Row) {
                reapRow(work, std::move(out.rowBytes));
            } else if (!out.consumesAttempt) {
                AUTOCAT_LOG_WARN
                    << "dist sweep: cell " << work.cell
                    << " never started on " << transports[s]->name()
                    << " (" << out.reason << "); requeueing for free";
                pending.push_back(work); // same attempt number
            } else {
                attemptFailed(work, out.reason);
            }
        }
        if (claimed || freed)
            continue;

        // Nothing running and nothing startable: every transport that
        // could take the pending cells has retired. Fail loudly — the
        // manifest (when configured) preserves finished cells for a
        // re-entry once the fleet is healthy again.
        if (!pending.empty()) {
            const bool any_busy =
                std::any_of(slots.begin(), slots.end(),
                            [](const SlotState &s) { return s.busy; });
            const bool any_alive = std::any_of(
                transports.begin(), transports.end(),
                [](const std::unique_ptr<RunnerTransport> &t) {
                    return t->alive();
                });
            if (!any_busy && !any_alive) {
                throw std::runtime_error(
                    "dist sweep: every fleet slot retired with " +
                    std::to_string(pending.size()) +
                    " cell(s) still pending");
            }
        }

        // Hang detection: a healthy attempt shows life (received
        // frames) continuously; staleness beyond the
        // budget gets killed and takes the normal death path (which
        // consumes a retry).
        if (fleet.heartbeatTimeoutS > 0) {
            for (std::size_t s = 0; s < transports.size(); ++s) {
                if (!slots[s].busy || slots[s].killed)
                    continue;
                if (transports[s]->idleSeconds() >
                    fleet.heartbeatTimeoutS) {
                    slots[s].killed = true;
                    transports[s]->kill();
                }
            }
        }

        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }

    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    std::vector<SweepReport> reports;
    reports.reserve(states.size());
    for (GridState &state : states) {
        state.report.wallSeconds = wall;
        reports.push_back(std::move(state.report));
    }
    return reports;
}

SweepReport
runSweepCellsDist(const std::string &name, std::vector<SweepCell> cells,
                  const DistSweepOptions &options,
                  const SweepProgress &progress)
{
    FleetOptions fleet;
    // The pre-fleet interface always ran at least one local slot;
    // endpoint-only fleets must ask for processes = 0 explicitly.
    fleet.localProcesses = options.endpoints.empty()
                               ? std::max(options.processes, 1)
                               : std::max(options.processes, 0);
    fleet.runnerPath = options.runnerPath;
    fleet.endpoints = options.endpoints;
    fleet.maxRetries = options.maxRetries;
    fleet.heartbeatTimeoutS = options.heartbeatTimeoutS;
    fleet.chaosKillCell = options.chaosKillCell;
    fleet.chaosKillAfter = options.chaosKillAfter;
    fleet.chaosHang = options.chaosHang;
    fleet.chaosSigterm = options.chaosSigterm;
    fleet.stopAfterCells = options.stopAfterCells;

    ScheduledGrid grid;
    grid.name = name;
    grid.cells = std::move(cells);
    grid.workDir = options.workDir;
    grid.checkpointDir = options.checkpointDir;
    grid.checkpointEvery = options.checkpointEvery;
    grid.manifestDir = options.manifestDir;
    grid.manifestReset = options.manifestReset;
    grid.progress = progress;

    std::vector<ScheduledGrid> grids;
    grids.push_back(std::move(grid));
    return std::move(runSweepGridsFleet(std::move(grids), fleet)[0]);
}

} // namespace autocat
