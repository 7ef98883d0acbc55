/**
 * @file
 * Distributed sweep service tests: the cell job/row wire format
 * (round trips + corruption rejection), crash-safe checkpoint writes,
 * and the scheduler's failure semantics — worker death mid-cell,
 * checkpoint resume, heartbeat-timeout requeue, retry-budget
 * exhaustion — all pinned against the byte-identity oracle: a sharded
 * run (including one with a deliberately killed worker) must render
 * the exact same report as `workers=1` in-process.
 *
 * Scheduler tests spawn the real runner_daemon executable, whose path
 * the build compiles in (AUTOCAT_TEST_RUNNER_DAEMON).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <unistd.h>

#include "core/config_parser.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "eval/sweep_config.hpp"
#include "serve/cell_exec.hpp"
#include "serve/dist_scheduler.hpp"
#include "serve/wire.hpp"
#include "util/atomic_file.hpp"

namespace autocat {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory under the system temp root. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("autocat_dist_" + name + "_" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Cheapest real grid that exercises multiple cells: 2 scenarios x 2
 *  policies over a 2-block cache. Two epochs per cell so that, with
 *  checkpoint_every=1, a mid-cell checkpoint boundary exists to
 *  kill and resume across. */
SweepConfig
tinyDistSweep()
{
    SweepConfig cfg;
    cfg.name = "tiny-dist";
    cfg.base.env.cache.numSets = 1;
    cfg.base.env.cache.numWays = 2;
    cfg.base.env.cache.addressSpaceSize = 6;
    cfg.base.env.attackAddrS = 0;
    cfg.base.env.attackAddrE = 2;
    cfg.base.env.victimAddrS = 0;
    cfg.base.env.victimAddrE = 0;
    cfg.base.env.victimNoAccessEnable = true;
    cfg.base.env.windowSize = 8;
    cfg.base.ppo.stepsPerEpoch = 200;
    cfg.base.ppo.minibatchSize = 100;
    cfg.base.maxEpochs = 2;
    cfg.base.evalEpisodes = 5;
    cfg.grid.scenarios = {"guessing_game", "l1l2_private"};
    cfg.grid.policies = {ReplPolicy::Lru, ReplPolicy::TreePlru};
    cfg.grid.seeds = {5};
    return cfg;
}

DistSweepOptions
distOptions(const fs::path &root)
{
    DistSweepOptions opts;
    opts.processes = 3;
    opts.runnerPath = AUTOCAT_TEST_RUNNER_DAEMON;
    opts.workDir = (root / "work").string();
    opts.checkpointDir = (root / "ckpt").string();
    opts.checkpointEvery = 1;
    return opts;
}

// --------------------------------------------------------------- wire

TEST(CellWire, JobRoundTripPreservesTheCell)
{
    std::vector<SweepCell> cells = expandSweepGrid(tinyDistSweep());
    ASSERT_GE(cells.size(), 2u);
    SweepCell &cell = cells[1];
    CurriculumPhase phase;
    phase.name = "clean";
    phase.maxEpochs = 2;
    phase.targetAccuracy = 0.9;
    cell.phases.push_back(phase);

    const SweepCell back = deserializeCellJob(serializeCellJob(cell));

    EXPECT_EQ(back.index, cell.index);
    EXPECT_EQ(back.label, cell.label);
    EXPECT_EQ(back.scenario, cell.scenario);
    EXPECT_EQ(back.hierarchy, cell.hierarchy);
    EXPECT_EQ(back.policy, cell.policy);
    EXPECT_EQ(back.seed, cell.seed);
    ASSERT_EQ(back.phases.size(), 1u);
    EXPECT_EQ(back.phases[0].name, "clean");
    EXPECT_EQ(back.phases[0].maxEpochs, 2);
    EXPECT_DOUBLE_EQ(back.phases[0].targetAccuracy, 0.9);
    // Renderer coverage IS wire coverage: whatever config state
    // survives render->parse must be exactly what came in. Comparing
    // rendered text covers every field the renderer knows about —
    // including the cell-critical ones (seeds, minibatch size, lambda,
    // layers) that a lossy wire would silently reset.
    EXPECT_EQ(renderExplorationConfig(back.config),
              renderExplorationConfig(cell.config));
}

TEST(CellWire, RowRoundTripPreservesTheOutcome)
{
    SweepCellResult row;
    row.cell.index = 7;
    row.completed = true;
    row.wallSeconds = 1.25;
    row.result.converged = true;
    row.result.epochsToConverge = 3;
    row.result.finalAccuracy = 0.975;
    row.result.finalEpisodeLength = 9.5;
    row.result.bitRate = 0.42;
    row.result.detectionRate = 0.01;
    row.result.envSteps = 123456;
    row.result.sequence.push({ActionKind::Access, 3});
    row.result.sequence.push({ActionKind::TriggerVictim, 0});
    row.result.sequence.push({ActionKind::Guess, 1});
    row.result.finalGuess = "guess 1";
    row.result.category = AttackCategory::EvictReload;

    const SweepCellResult back =
        deserializeCellRow(serializeCellRow(row));

    EXPECT_EQ(back.cell.index, 7u);
    EXPECT_TRUE(back.completed);
    EXPECT_TRUE(back.error.empty());
    EXPECT_DOUBLE_EQ(back.wallSeconds, 1.25);
    EXPECT_TRUE(back.result.converged);
    EXPECT_EQ(back.result.epochsToConverge, 3);
    EXPECT_DOUBLE_EQ(back.result.finalAccuracy, 0.975);
    EXPECT_DOUBLE_EQ(back.result.finalEpisodeLength, 9.5);
    EXPECT_DOUBLE_EQ(back.result.bitRate, 0.42);
    EXPECT_DOUBLE_EQ(back.result.detectionRate, 0.01);
    EXPECT_EQ(back.result.envSteps, 123456);
    ASSERT_EQ(back.result.sequence.size(), 3u);
    EXPECT_EQ(back.result.sequence.steps()[0].kind, ActionKind::Access);
    EXPECT_EQ(back.result.sequence.steps()[1].kind,
              ActionKind::TriggerVictim);
    EXPECT_EQ(back.result.sequence.steps()[2].addr, 1u);
    EXPECT_EQ(back.result.finalGuess, "guess 1");
    EXPECT_EQ(back.result.category, AttackCategory::EvictReload);
}

TEST(CellWire, FailureRowCarriesTheError)
{
    SweepCellResult row;
    row.cell.index = 2;
    row.completed = false;
    row.error = "env: unknown scenario \"nope\"";

    const SweepCellResult back =
        deserializeCellRow(serializeCellRow(row));
    EXPECT_FALSE(back.completed);
    EXPECT_EQ(back.error, "env: unknown scenario \"nope\"");
}

TEST(CellWire, RejectsCorruptBlobs)
{
    const std::vector<SweepCell> cells =
        expandSweepGrid(tinyDistSweep());
    const std::string blob = serializeCellJob(cells[0]);

    // Bit flip in the payload: the trailing checksum catches it.
    {
        std::string bad = blob;
        bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x10);
        EXPECT_THROW(deserializeCellJob(bad), std::runtime_error);
    }
    // Truncation (a partially-written file without the atomic rename).
    EXPECT_THROW(deserializeCellJob(blob.substr(0, blob.size() - 3)),
                 std::runtime_error);
    EXPECT_THROW(deserializeCellJob(blob.substr(0, 10)),
                 std::runtime_error);
    EXPECT_THROW(deserializeCellJob(std::string()), std::runtime_error);
    // Wrong kind: a row blob handed to the job parser (magic check).
    SweepCellResult row;
    row.cell.index = 0;
    EXPECT_THROW(deserializeCellJob(serializeCellRow(row)),
                 std::runtime_error);
    EXPECT_THROW(deserializeCellRow(blob), std::runtime_error);
    // Wrong version byte: future formats must be rejected, not guessed.
    {
        std::string bad = blob;
        bad[8] = static_cast<char>(bad[8] + 1); // u32 version LSB
        EXPECT_THROW(deserializeCellJob(bad), std::runtime_error);
    }
    // Trailing garbage after an otherwise-valid section.
    EXPECT_THROW(deserializeCellJob(blob + "x"), std::runtime_error);
}

// ------------------------------------------------------- atomic writes

TEST(AtomicFile, WriteReadRoundTripAndOverwrite)
{
    const fs::path root = scratchDir("atomic");
    const std::string path = (root / "f.bin").string();

    const char raw[] = "\x00\x01garbage\xff\n binary";
    const std::string payload(raw, sizeof raw - 1);  // embedded NUL kept
    atomicWriteFile(path, payload, "test file");
    EXPECT_EQ(readWholeFile(path, "test file"), payload);

    atomicWriteFile(path, "second", "test file");
    EXPECT_EQ(readWholeFile(path, "test file"), "second");
    fs::remove_all(root);
}

TEST(AtomicFile, StaleTempFilesDoNotShadowTheRealFile)
{
    // A crash between temp-write and rename leaves `<path>.tmp.<pid>`
    // behind; the real path must stay readable and a later save must
    // still land.
    const fs::path root = scratchDir("atomic_stale");
    const std::string path = (root / "ckpt").string();
    atomicWriteFile(path, "good", "test file");
    {
        std::ofstream stale(path + ".tmp.99999", std::ios::binary);
        stale << "half-writ";
    }
    EXPECT_EQ(readWholeFile(path, "test file"), "good");
    atomicWriteFile(path, "newer", "test file");
    EXPECT_EQ(readWholeFile(path, "test file"), "newer");
    fs::remove_all(root);
}

// ---------------------------------------------------------- scheduler

TEST(DistScheduler, RejectsMissingRunner)
{
    const fs::path root = scratchDir("norunner");
    std::vector<SweepCell> cells = expandSweepGrid(tinyDistSweep());
    DistSweepOptions opts;
    opts.runnerPath = (root / "no_such_runner").string();
    opts.workDir = (root / "work").string();
    EXPECT_THROW(
        runSweepCellsDist("x", std::move(cells), opts),
        std::invalid_argument);
    fs::remove_all(root);
}

/**
 * THE acceptance oracle: a grid sharded across 3 worker processes —
 * one of which is SIGKILLed mid-cell right after a checkpoint write
 * and resumed by the scheduler — renders byte-identical default
 * reports to the same grid run in-process with workers=1. Checkpoint
 * cadence must match between the runs (boundaries resync env
 * streams); directories must differ (no shared state).
 */
TEST(DistScheduler, KilledWorkerResumesByteIdentical)
{
    const fs::path root = scratchDir("identical");

    const SweepConfig cfg = tinyDistSweep();
    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 4u);

    const SweepReport local = runSweepCells(
        cfg.name, cells, /*workers=*/1, {},
        (root / "local_ckpt").string(), /*checkpoint_every=*/1);

    DistSweepOptions opts = distOptions(root);
    opts.chaosKillCell = 2;
    opts.chaosKillAfter = 1;
    const SweepReport dist =
        runSweepCellsDist(cfg.name, cells, opts);

    ASSERT_EQ(dist.cells.size(), local.cells.size());
    EXPECT_EQ(dist.workersUsed, 3);
    // The injected death consumed exactly one extra attempt, on the
    // targeted cell only, and its retry finished the cell.
    EXPECT_EQ(dist.cells[2].attempts, 2);
    EXPECT_TRUE(dist.cells[2].completed);
    for (const std::size_t i : {0u, 1u, 3u})
        EXPECT_EQ(dist.cells[i].attempts, 1) << "cell " << i;

    EXPECT_EQ(sweepReportJson(dist, {}), sweepReportJson(local, {}));
    fs::remove_all(root);
}

TEST(DistScheduler, DeterministicCellFailureIsARowNotARetry)
{
    const fs::path root = scratchDir("cellfail");

    std::vector<SweepCell> cells = expandSweepGrid(tinyDistSweep());
    cells.resize(2);
    // An unknown scenario throws inside the campaign on every attempt
    // identically; the runner must return it as a failure ROW (exit 0)
    // so the scheduler records it without burning retries, and the
    // rest of the grid still runs.
    cells[1].scenario = "no_such_scenario";
    cells[1].config.scenario = "no_such_scenario";

    const SweepReport report =
        runSweepCellsDist("fail", cells, distOptions(root));

    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_TRUE(report.cells[0].completed);
    EXPECT_FALSE(report.cells[1].completed);
    EXPECT_EQ(report.cells[1].attempts, 1);
    EXPECT_NE(report.cells[1].error.find("no_such_scenario"),
              std::string::npos)
        << report.cells[1].error;
    // Failure rows keep their cell identity for the report.
    EXPECT_EQ(report.cells[1].cell.scenario, "no_such_scenario");
    EXPECT_EQ(report.numFailed(), 1u);
    fs::remove_all(root);
}

TEST(DistScheduler, HungWorkerIsKilledRequeuedAndFinishes)
{
    const fs::path root = scratchDir("hang");

    std::vector<SweepCell> cells = expandSweepGrid(tinyDistSweep());
    cells.resize(2);

    DistSweepOptions opts = distOptions(root);
    opts.chaosKillCell = 1;
    opts.chaosHang = true; // first attempt of cell 1 wedges silently
    opts.heartbeatTimeoutS = 1.0;
    opts.maxRetries = 1;

    const SweepReport report =
        runSweepCellsDist("hang", cells, opts);

    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_TRUE(report.cells[1].completed) << report.cells[1].error;
    EXPECT_EQ(report.cells[1].attempts, 2);
    EXPECT_EQ(report.cells[0].attempts, 1);
    EXPECT_EQ(report.numFailed(), 0u);
    fs::remove_all(root);
}

TEST(DistScheduler, RetryBudgetExhaustionLandsAsPerCellError)
{
    const fs::path root = scratchDir("budget");

    std::vector<SweepCell> cells = expandSweepGrid(tinyDistSweep());
    cells.resize(2);

    DistSweepOptions opts = distOptions(root);
    opts.chaosKillCell = 0;
    opts.chaosKillAfter = 1;
    opts.maxRetries = 0; // the injected death exhausts the budget

    const SweepReport report =
        runSweepCellsDist("budget", cells, opts);

    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_FALSE(report.cells[0].completed);
    EXPECT_EQ(report.cells[0].attempts, 1);
    EXPECT_NE(report.cells[0].error.find("died"), std::string::npos)
        << report.cells[0].error;
    // The healthy cell is unaffected: worker failures never abort the
    // rest of the grid.
    EXPECT_TRUE(report.cells[1].completed);
    EXPECT_EQ(report.numFailed(), 1u);
    fs::remove_all(root);
}

// ------------------------------------------------ local checkpointing

TEST(SweepCheckpointing, ReportIndependentOfWorkerCount)
{
    const fs::path root = scratchDir("workers");
    const SweepConfig cfg = tinyDistSweep();
    const std::vector<SweepCell> cells = expandSweepGrid(cfg);

    const SweepReport one = runSweepCells(
        cfg.name, cells, 1, {}, (root / "ck1").string(), 1);
    const SweepReport three = runSweepCells(
        cfg.name, cells, 3, {}, (root / "ck3").string(), 1);

    EXPECT_EQ(sweepReportJson(one, {}), sweepReportJson(three, {}));
    fs::remove_all(root);
}

TEST(SweepCheckpointing, ConfigKeysRoundTrip)
{
    SweepConfig cfg = tinyDistSweep();
    cfg.checkpointDir = "ckpt/cells";
    cfg.checkpointInterval = 5;
    cfg.distProcesses = 3;
    cfg.distRetries = 2;
    cfg.heartbeatTimeoutS = 30.0;
    cfg.distWorkDir = "scratch/dist";

    const SweepConfig back =
        parseSweepConfig(renderSweepConfig(cfg));
    EXPECT_EQ(back.checkpointDir, "ckpt/cells");
    EXPECT_EQ(back.checkpointInterval, 5);
    EXPECT_EQ(back.distProcesses, 3);
    EXPECT_EQ(back.distRetries, 2);
    EXPECT_DOUBLE_EQ(back.heartbeatTimeoutS, 30.0);
    EXPECT_EQ(back.distWorkDir, "scratch/dist");
    // Render->parse->render is a fixed point for the new keys too.
    EXPECT_EQ(renderSweepConfig(back), renderSweepConfig(cfg));
    // The worker path and the chaos hooks are never config keys.
    EXPECT_THROW(parseSweepConfig(std::string("sweep.runner = x\n")),
                 std::invalid_argument);
    EXPECT_THROW(
        parseSweepConfig(std::string("sweep.chaos_kill_cell = 1\n")),
        std::invalid_argument);
}

} // namespace
} // namespace autocat
