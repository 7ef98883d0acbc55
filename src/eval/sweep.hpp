/**
 * @file
 * Sweep campaigns: many explore() runs over a declarative grid.
 *
 * The paper's core result tables (IV: attacks across cache configs,
 * V: replacement policies, III: hardware targets) are grids of
 * independent exploration runs. A SweepConfig describes such a grid —
 * scenario x replacement policy x seed, plus optional Table III
 * hardware-target rows built through HardwareTargetPreset::hierarchy()
 * — and SweepRunner expands it into per-cell ExplorationConfigs, fans
 * the cells out over a TaskPool, and aggregates per-cell results
 * (convergence, guess accuracy, bit rate, episode length, wall time,
 * rendered attack sequence) into a SweepReport.
 *
 * Determinism: every cell derives its env and PPO seeds from the grid
 * seed alone, each cell's explore() run is deterministic for fixed
 * seeds, and cells write only their own report slot — so a report's
 * content is bit-for-bit reproducible regardless of worker count
 * (eval/report.hpp renders it byte-identically).
 */

#ifndef AUTOCAT_EVAL_SWEEP_HPP
#define AUTOCAT_EVAL_SWEEP_HPP

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/explore.hpp"

namespace autocat {

/** Grid dimensions a sweep crosses. */
struct SweepGrid
{
    /**
     * Scenario registry names (env/env_registry.hpp); empty selects
     * the base config's scenario. Unknown names fail at expansion,
     * listing the registered scenarios.
     */
    std::vector<std::string> scenarios;

    /**
     * Replacement policies applied to the attacked level (EnvConfig::
     * cache and, when the cell carries an explicit hierarchy, its
     * outermost level). Empty keeps the base config's policy.
     */
    std::vector<ReplPolicy> policies;

    /** Grid seeds; empty selects the base config's env seed. */
    std::vector<std::uint64_t> seeds;

    /**
     * Append the Table III hardware targets as extra grid rows: for
     * each preset and grid seed, one guessing_game cell over the
     * preset's HierarchyConfig (hidden replacement policy, CacheQuery-
     * style single set — hw/machines.hpp). These rows do not cross
     * with the scenario/policy dimensions.
     */
    bool hardwareTargets = false;
};

/** A full sweep description: shared base config + grid + run knobs. */
struct SweepConfig
{
    /** Report title (JSON "name", table heading). */
    std::string name = "sweep";

    /** Per-cell defaults; the grid dimensions override per cell. */
    ExplorationConfig base;

    SweepGrid grid;

    /**
     * Campaign template applied to every cell (config keys
     * `phase[N].*`). Empty runs cells through plain explore(); a
     * non-empty list runs each cell as a curriculum campaign
     * (core/campaign.hpp), with the cell's scenario/seed substituted
     * into the base — a phase whose scenario is empty inherits the
     * cell's scenario, so "train clean, then against the detector"
     * grids write phase[0].scenario = guessing_game and leave
     * phase[1].scenario to the swept bypass scenario names.
     */
    std::vector<CurriculumPhase> phases;

    /** Campaign worker threads (cells run concurrently). */
    int workers = 1;

    /** Include wall-time fields in the JSON report (breaks run-to-run
     *  byte-identity, so off by default). */
    bool includeTiming = false;

    /** Report output paths used by the sweep_from_config driver;
     *  empty = don't write. */
    std::string reportJsonPath;
    std::string reportCsvPath;

    // ----- checkpointed cells (config keys sweep.checkpoint_*)
    /**
     * Directory for per-cell campaign checkpoints (`cell_<index>.ckpt`,
     * created on demand); empty disables cell checkpointing. With a
     * directory set, every cell — in-process or remote — runs as a
     * checkpointing campaign (core/campaign.hpp) and is resumable
     * bit-for-bit, so a killed run re-launched over the same directory
     * loses at most checkpointInterval epochs per in-flight cell.
     * Checkpoint boundaries resync the env streams, so reports from
     * checkpointed runs differ from uncheckpointed ones; runs being
     * byte-compared must agree on checkpointDir-emptiness and
     * checkpointInterval.
     */
    std::string checkpointDir;

    /** Mid-cell checkpoint cadence in epochs; 0 checkpoints at phase
     *  ends only (see CampaignConfig::checkpointEvery). */
    int checkpointInterval = 0;

    // ----- distributed execution (serve/dist_scheduler.hpp)
    /**
     * Local fleet slots to shard the grid across, each running one
     * runner_daemon child process per cell attempt; 0 runs cells
     * in-process on `workers` pool threads. Config key
     * sweep.dist_processes.
     */
    int distProcesses = 0;

    /** Re-spawns per cell after a worker death or hang (config key
     *  sweep.dist_retries). */
    int distRetries = 1;

    /**
     * Kill and requeue a cell attempt whose worker sends no frame
     * (Heartbeat, Checkpoint, Row) for this many seconds; 0 disables
     * hang detection. Config key sweep.heartbeat_timeout_s.
     */
    double heartbeatTimeoutS = 0.0;

    /** Scratch directory for job blobs and local workers' checkpoint
     *  staging; empty derives `<checkpointDir or .>/dist_work`. Config
     *  key sweep.dist_work_dir. */
    std::string distWorkDir;

    /**
     * Fault-injection harness hooks (CLI only, used by the
     * fleet-smoke CI job and tests): SIGKILL the first attempt of cell
     * chaosKillCell on a local slot after chaosKillAfter checkpoint
     * uploads; -1 disables. chaosSigterm sends the worker SIGTERM
     * instead, so it exits through the graceful flush path.
     */
    long chaosKillCell = -1;
    int chaosKillAfter = 1;
    bool chaosSigterm = false;

    /** Abort the scheduler (DistStopInjected) after this many cells
     *  finish in this run; 0 disables. CLI only — the manifest
     *  re-entry harness uses it to simulate a scheduler death. */
    std::size_t stopAfterCells = 0;

    // ----- networked fleet (serve/net, config key sweep.dist_endpoints)
    /**
     * runner_daemon endpoints ("host:port", comma list) to shard cells
     * onto alongside the local distProcesses slots. Any non-empty
     * fleet (endpoints and/or processes) routes the run through the
     * distributed scheduler; mixed fleets are fine — cell placement
     * never changes report bytes.
     */
    std::vector<std::string> distEndpoints;

    // ----- persistent grid manifest (config keys sweep.manifest_*)
    /**
     * Grid manifest directory (serve/manifest): records every finished
     * cell's row blob keyed by the grid's identity hash, so a fresh
     * scheduler process re-enters a half-finished run and computes
     * only the missing cells. Empty disables. Config key
     * sweep.manifest_dir.
     */
    std::string manifestDir;

    /** Wipe a manifest directory whose recorded grid identity does not
     *  match this run's grid (instead of refusing). Config key
     *  sweep.manifest_reset. */
    bool manifestReset = false;

    // ----- gateway submission metadata (config keys gateway.*)
    /**
     * Tenant name for campaign_gateway submissions: each tenant's
     * campaigns get their own work/manifest subdirectories under the
     * gateway root. Empty outside gateway runs. Config key
     * gateway.tenant.
     */
    std::string gatewayTenant;

    /** Gateway scheduling priority (higher runs first; ties submit in
     *  arrival order). Config key gateway.priority. */
    int gatewayPriority = 0;

    // ----- sample-efficiency bakeoff (config keys sweep.bakeoff_*)
    /**
     * Bakeoff agents (config key sweep.bakeoff_agents): each name
     * appends one extra row per bakeoff scenario and grid seed — like
     * hardware-target rows, they do not cross with the main grid.
     *
     *  - "ppo":           the base config as-is (unmasked baseline)
     *  - "ppo_masked":    the base config with maskActions +
     *                     maskUselessActions forced on and
     *                     uselessActionPenalty = maskedPenalty
     *  - "random_search": the Sec. VI-A random-search baseline over a
     *                     ScenarioOracle for the cell's scenario, on
     *                     the same total step budget (maxEpochs x
     *                     stepsPerEpoch simulated steps)
     *
     * Unknown names fail at expansion. Empty disables the bakeoff.
     */
    std::vector<std::string> bakeoffAgents;

    /** Scenarios the bakeoff rows run on (config key
     *  sweep.bakeoff_scenarios); empty = the base config's scenario. */
    std::vector<std::string> bakeoffScenarios;

    /** uselessActionPenalty applied to ppo_masked bakeoff rows (config
     *  key sweep.masked_penalty). */
    double maskedPenalty = 0.0;
};

/** One expanded grid cell: a fully-resolved exploration run. */
struct SweepCell
{
    std::size_t index = 0;       ///< position in the expansion order
    std::string label;           ///< e.g. "three_level/rrip/s7"
    std::string scenario;        ///< registry name the cell trains on
    std::string hierarchy = "-"; ///< named hierarchy row ("-" = none)
    std::string policy;          ///< replacement policy label
    std::uint64_t seed = 0;      ///< grid seed the cell derives from

    /**
     * Agent the cell runs. "random_search" runs the Sec. VI-A
     * non-learning baseline; anything else ("ppo", "ppo_masked") runs
     * the campaign/explore() pipeline — "ppo_masked" is just "ppo"
     * whose config enables masking, labeled distinctly for reports
     * (see SweepConfig::bakeoffAgents).
     */
    std::string agent = "ppo";

    ExplorationConfig config;    ///< resolved exploration description

    /** Curriculum phases; empty = plain explore() cell. */
    std::vector<CurriculumPhase> phases;
};

/** Outcome of one cell. */
struct SweepCellResult
{
    SweepCell cell;
    bool completed = false;   ///< explore() returned (vs threw)
    std::string error;        ///< exception message when !completed
    ExplorationResult result; ///< valid when completed
    double wallSeconds = 0.0;

    /**
     * Runner attempts this cell consumed (1 = first try; >1 means the
     * scheduler retried after a worker death or hang). Run-dependent,
     * so rendered only with ReportOptions::includeTiming.
     */
    int attempts = 1;
};

/** Aggregated campaign outcome, cells in expansion order. */
struct SweepReport
{
    std::string name;
    std::vector<SweepCellResult> cells;
    double wallSeconds = 0.0;
    int workersUsed = 1;  ///< effective pool size after clamping

    /** Cells adopted as already-done from a grid manifest rather than
     *  run here. Run-dependent diagnostics (like workersUsed): never
     *  rendered, so re-entered runs stay byte-identical. */
    std::size_t cellsAdopted = 0;

    /** Cells that completed and converged. */
    std::size_t numConverged() const;

    /** Cells whose explore() threw. */
    std::size_t numFailed() const;
};

/**
 * Expand a sweep config into its cell list (scenario x policy x seed,
 * then hardware-target rows), without running anything.
 *
 * @throws std::invalid_argument for an unknown scenario name (the
 *         message lists the registered scenarios) or an empty grid
 */
std::vector<SweepCell> expandSweepGrid(const SweepConfig &config);

/** Per-finished-cell observer (calls are serialized). */
using SweepProgress = std::function<void(const SweepCellResult &)>;

/**
 * Run pre-built cells on @p workers pool threads and aggregate the
 * report. Cell failures (exceptions out of explore()) are captured
 * per cell — index, scenario, and error text land in the cell's
 * report row — and never abort the rest of the grid. Deterministic
 * for fixed cell configs: the report content is independent of worker
 * count and scheduling.
 *
 * A non-empty @p checkpoint_dir runs every cell as a checkpointing
 * campaign (per-cell file `cell_<index>.ckpt`, cadence
 * @p checkpoint_every), making cells resumable bit-for-bit; see
 * SweepConfig::checkpointDir for the determinism caveat.
 */
SweepReport runSweepCells(const std::string &name,
                          std::vector<SweepCell> cells, int workers,
                          const SweepProgress &progress = {},
                          const std::string &checkpoint_dir = "",
                          int checkpoint_every = 0);

/** Expand + run a sweep config (report paths are NOT written here —
 *  the caller renders the report via eval/report.hpp). */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepConfig config);

    /** The config this runner was built from. */
    const SweepConfig &config() const { return config_; }

    /** The expanded cells (available before run()). */
    const std::vector<SweepCell> &cells() const { return cells_; }

    SweepReport run(const SweepProgress &progress = {});

  private:
    SweepConfig config_;
    std::vector<SweepCell> cells_;
};

} // namespace autocat

#endif // AUTOCAT_EVAL_SWEEP_HPP
