#include "eval/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <stdexcept>

#include "env/env_registry.hpp"
#include "hw/machines.hpp"
#include "serve/cell_exec.hpp"
#include "serve/dist_scheduler.hpp"
#include "util/task_pool.hpp"

namespace autocat {

namespace {

/** Derive the cell's PPO seed from the base and the grid seed. The
 *  multiplier decorrelates neighboring grid seeds without making the
 *  derivation opaque in reports. */
std::uint64_t
derivePpoSeed(std::uint64_t base_ppo_seed, std::uint64_t grid_seed)
{
    return base_ppo_seed + 1000003ull * grid_seed;
}

/** Apply one grid policy to the attacked level of @p env. The TLB
 *  channel config mirrors it so the policy dimension also varies
 *  tlb_evict cells (cache scenarios never read channel.tlb). */
void
applyPolicy(EnvConfig &env, ReplPolicy policy)
{
    env.cache.policy = policy;
    if (!env.hierarchy.levels.empty())
        env.hierarchy.levels.back().cache.policy = policy;
    env.channel.tlb.policy = policy;
}

/** Table III hardware-target cell: guessing_game over the preset's
 *  hierarchy description (hidden policy, single exposed set). */
SweepCell
hardwareTargetCell(const ExplorationConfig &base,
                   const HardwareTargetPreset &preset,
                   std::uint64_t grid_seed)
{
    SweepCell cell;
    cell.scenario = "guessing_game";
    // The ways count distinguishes presets sharing a CPU/level (the
    // CAT-partitioned KabyLake L3 rows differ only in ways).
    cell.hierarchy = preset.cpu + " " + preset.level + " " +
                     std::to_string(preset.ways) + "w";
    cell.policy = preset.documented ? replPolicyName(preset.policy)
                                    : "n.o.d.";
    cell.seed = grid_seed;
    cell.label = cell.hierarchy + "/s" + std::to_string(grid_seed);

    ExplorationConfig cfg = base;
    cfg.scenario = cell.scenario;
    cfg.env.hierarchy = preset.hierarchy(grid_seed);
    // Mirror the Table III bench environment: the attacker sweeps the
    // exposed set, the victim accesses address 0 or nothing.
    cfg.env.cache = cfg.env.hierarchy.levels.back().cache;
    cfg.env.attackAddrS = 0;
    cfg.env.attackAddrE = preset.attackAddrE;
    cfg.env.victimAddrS = 0;
    cfg.env.victimAddrE = 0;
    cfg.env.victimNoAccessEnable = true;
    cfg.env.windowSize = preset.ways * 3 + 4;
    cfg.env.seed = grid_seed;
    cfg.ppo.seed = derivePpoSeed(base.ppo.seed, grid_seed);
    cell.config = std::move(cfg);
    return cell;
}

} // namespace

std::size_t
SweepReport::numConverged() const
{
    std::size_t n = 0;
    for (const auto &c : cells)
        n += c.completed && c.result.converged;
    return n;
}

std::size_t
SweepReport::numFailed() const
{
    std::size_t n = 0;
    for (const auto &c : cells)
        n += !c.completed;
    return n;
}

std::vector<SweepCell>
expandSweepGrid(const SweepConfig &config)
{
    const std::vector<std::string> scenarios =
        config.grid.scenarios.empty()
            ? std::vector<std::string>{config.base.scenario}
            : config.grid.scenarios;
    const std::vector<std::uint64_t> seeds =
        config.grid.seeds.empty()
            ? std::vector<std::uint64_t>{config.base.env.seed}
            : config.grid.seeds;

    for (const std::string &s : scenarios) {
        if (hasScenario(s))
            continue;
        std::string known;
        for (const std::string &name : scenarioNames())
            known += (known.empty() ? "" : ", ") + name;
        throw std::invalid_argument("sweep: unknown scenario \"" + s +
                                    "\" (registered: " + known + ")");
    }

    // Explicit hierarchy.levels[*] in the base override every built-in
    // scenario's level synthesis (env_registry resolveHierarchy), so a
    // multi-scenario grid over one would train bit-identical cells
    // under different labels. Fail loudly instead of wasting the
    // campaign.
    if (scenarios.size() > 1 && !config.base.env.hierarchy.levels.empty()) {
        throw std::invalid_argument(
            "sweep: explicit hierarchy.levels[*] in the base config "
            "would make every scenario cell identical; drop the "
            "explicit levels or sweep a single scenario");
    }

    // Without a policy grid, the label reflects the attacked (outermost)
    // level's actual policy, which an explicit base hierarchy may set
    // independently of the top-level rep_policy key.
    const ReplPolicy base_policy =
        config.base.env.hierarchy.levels.empty()
            ? config.base.env.cache.policy
            : config.base.env.hierarchy.levels.back().cache.policy;

    std::vector<SweepCell> cells;
    for (const std::string &scenario : scenarios) {
        // An empty policy dimension keeps the base policy per cell.
        const std::size_t num_policies =
            config.grid.policies.empty() ? 1 : config.grid.policies.size();
        for (std::size_t p = 0; p < num_policies; ++p) {
            for (std::uint64_t seed : seeds) {
                SweepCell cell;
                cell.scenario = scenario;
                cell.seed = seed;
                cell.config = config.base;
                cell.phases = config.phases;
                cell.config.scenario = scenario;
                cell.config.env.seed = seed;
                cell.config.ppo.seed =
                    derivePpoSeed(config.base.ppo.seed, seed);
                if (!config.grid.policies.empty())
                    applyPolicy(cell.config.env, config.grid.policies[p]);
                cell.policy = replPolicyName(
                    config.grid.policies.empty()
                        ? base_policy
                        : config.grid.policies[p]);
                cell.label = scenario + "/" + cell.policy + "/s" +
                             std::to_string(seed);
                cells.push_back(std::move(cell));
            }
        }
    }

    if (config.grid.hardwareTargets) {
        for (const HardwareTargetPreset &preset : tableIIITargets()) {
            for (std::uint64_t seed : seeds)
                cells.push_back(
                    hardwareTargetCell(config.base, preset, seed));
        }
    }

    // Sec. VI-A sample-efficiency bakeoff: appended rows (one per
    // agent x scenario x seed), never crossed with the main grid —
    // same mechanism as the hardware-target rows.
    if (!config.bakeoffAgents.empty()) {
        const std::vector<std::string> bakeoff_scenarios =
            config.bakeoffScenarios.empty()
                ? std::vector<std::string>{config.base.scenario}
                : config.bakeoffScenarios;
        for (const std::string &s : bakeoff_scenarios) {
            if (!hasScenario(s)) {
                throw std::invalid_argument(
                    "sweep: unknown bakeoff scenario \"" + s + "\"");
            }
        }
        for (const std::string &agent : config.bakeoffAgents) {
            if (agent != "ppo" && agent != "ppo_masked" &&
                agent != "random_search") {
                throw std::invalid_argument(
                    "sweep: unknown bakeoff agent \"" + agent +
                    "\" (known: ppo, ppo_masked, random_search)");
            }
            for (const std::string &scenario : bakeoff_scenarios) {
                for (std::uint64_t seed : seeds) {
                    SweepCell cell;
                    cell.agent = agent;
                    cell.scenario = scenario;
                    cell.seed = seed;
                    cell.config = config.base;
                    cell.config.scenario = scenario;
                    cell.config.env.seed = seed;
                    cell.config.ppo.seed =
                        derivePpoSeed(config.base.ppo.seed, seed);
                    cell.policy = replPolicyName(base_policy);
                    if (agent == "ppo_masked") {
                        cell.config.env.maskActions = true;
                        cell.config.env.maskUselessActions = true;
                        cell.config.env.uselessActionPenalty =
                            config.maskedPenalty;
                    }
                    if (agent != "random_search")
                        cell.phases = config.phases;
                    cell.label = scenario + "/" + cell.policy + "/s" +
                                 std::to_string(seed) + "/" + agent;
                    cells.push_back(std::move(cell));
                }
            }
        }
    }

    if (cells.empty())
        throw std::invalid_argument("sweep: the grid expands to no cells");
    for (std::size_t i = 0; i < cells.size(); ++i)
        cells[i].index = i;
    return cells;
}

SweepReport
runSweepCells(const std::string &name, std::vector<SweepCell> cells,
              int workers, const SweepProgress &progress,
              const std::string &checkpoint_dir, int checkpoint_every)
{
    using Clock = std::chrono::steady_clock;

    if (!checkpoint_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(checkpoint_dir, ec);
        if (ec || !std::filesystem::is_directory(checkpoint_dir)) {
            throw std::invalid_argument(
                "sweep: cannot create checkpoint directory \"" +
                checkpoint_dir + "\"" + (ec ? ": " + ec.message() : ""));
        }
    }

    SweepReport report;
    report.name = name;
    report.cells.resize(cells.size());

    const auto t0 = Clock::now();
    std::mutex progress_mutex;

    // Cell execution is shared with the runner_daemon worker executable
    // (serve/cell_exec.hpp): in-process and distributed runs MUST
    // compute rows through identical code for report byte-identity.
    const auto run_cell = [&](std::size_t i) {
        CellExecOptions options;
        if (!checkpoint_dir.empty()) {
            options.checkpointPath =
                cellCheckpointPath(checkpoint_dir, cells[i].index);
            options.checkpointEvery = checkpoint_every;
        }
        report.cells[i] = runSweepCell(std::move(cells[i]), options);
        if (progress) {
            std::lock_guard<std::mutex> lock(progress_mutex);
            progress(report.cells[i]);
        }
    };

    if (workers <= 1 || report.cells.size() <= 1) {
        report.workersUsed = 1;
        for (std::size_t i = 0; i < report.cells.size(); ++i)
            run_cell(i);
    } else {
        TaskPool pool(static_cast<std::size_t>(workers),
                      /*max_useful=*/report.cells.size());
        report.workersUsed = static_cast<int>(pool.numThreads());
        pool.parallelFor(0, report.cells.size(), run_cell);
    }

    report.wallSeconds =
        std::chrono::duration<double>(Clock::now() - t0).count();
    return report;
}

SweepRunner::SweepRunner(SweepConfig config)
    : config_(std::move(config)), cells_(expandSweepGrid(config_))
{
}

SweepReport
SweepRunner::run(const SweepProgress &progress)
{
    // Any non-empty fleet — local worker processes and/or remote
    // runner daemons — routes through the distributed scheduler.
    if (config_.distProcesses > 0 || !config_.distEndpoints.empty()) {
        DistSweepOptions options;
        options.processes = config_.distProcesses;
        options.endpoints = config_.distEndpoints;
        options.workDir =
            config_.distWorkDir.empty()
                ? (config_.checkpointDir.empty() ? "."
                                                 : config_.checkpointDir) +
                      std::string("/dist_work")
                : config_.distWorkDir;
        options.checkpointDir = config_.checkpointDir;
        options.checkpointEvery = config_.checkpointInterval;
        options.manifestDir = config_.manifestDir;
        options.manifestReset = config_.manifestReset;
        options.maxRetries = config_.distRetries;
        options.heartbeatTimeoutS = config_.heartbeatTimeoutS;
        options.chaosKillCell = config_.chaosKillCell;
        options.chaosKillAfter = config_.chaosKillAfter;
        options.chaosSigterm = config_.chaosSigterm;
        options.stopAfterCells = config_.stopAfterCells;
        return runSweepCellsDist(config_.name, cells_, options, progress);
    }
    return runSweepCells(config_.name, cells_, config_.workers, progress,
                         config_.checkpointDir,
                         config_.checkpointInterval);
}

} // namespace autocat
