/**
 * @file
 * Single sweep-cell execution, shared by the in-process pool
 * (eval/sweep.cpp) and the runner_daemon worker executable
 * (serve/net/daemon_main.cpp).
 *
 * Both paths MUST run a cell through the exact same code for the
 * sharded-vs-local byte-identity contract to hold: a cell is one
 * campaign (core/campaign.hpp; an empty phase list is the legacy
 * explore() single phase), optionally checkpointing to a per-cell
 * file so a killed worker resumes bit-for-bit instead of restarting.
 * Exceptions out of the campaign are captured into the result row —
 * a deterministic per-cell failure (bad scenario, shape mismatch) is
 * report data, not a worker death, so the scheduler must not burn
 * retries on it.
 */

#ifndef AUTOCAT_SERVE_CELL_EXEC_HPP
#define AUTOCAT_SERVE_CELL_EXEC_HPP

#include <string>

#include "core/campaign.hpp"
#include "eval/sweep.hpp"

namespace autocat {

/** Execution knobs for one cell. */
struct CellExecOptions
{
    /** Campaign checkpoint file; empty disables checkpointing. */
    std::string checkpointPath;

    /** Mid-phase checkpoint cadence in epochs (0 = phase ends only). */
    int checkpointEvery = 0;

    /** Resume from checkpointPath when the file exists (the default,
     *  so a retried cell continues instead of restarting). */
    bool resume = true;

    /** Observer for checkpoint writes (heartbeats, chaos hooks). */
    TrainingSession::CheckpointCallback checkpointCb;

    /** Per-epoch observer (heartbeats). Runs in addition to the
     *  verbose progress log the cell config may request. */
    PpoTrainer::EpochCallback epochCb;
};

/**
 * Exit code runner_daemon uses after a graceful SIGTERM mid-cell: a
 * final Heartbeat was flushed and every checkpoint written so far was
 * uploaded, but no row was produced (checkpoint writes are atomic +
 * fsynced, and the shutdown flag is only observed between them). The
 * scheduler treats it as a retryable worker death ("died (exit code
 * 5)") and the retry resumes from the last uploaded checkpoint.
 */
constexpr int kRunnerExitSigterm = 5;

/** Per-cell checkpoint file path inside @p dir. */
std::string cellCheckpointPath(const std::string &dir, std::size_t index);

/**
 * Run one cell to completion (or captured failure). Never throws for
 * cell-level errors; wallSeconds is always filled.
 */
SweepCellResult runSweepCell(SweepCell cell,
                             const CellExecOptions &options = {});

} // namespace autocat

#endif // AUTOCAT_SERVE_CELL_EXEC_HPP
