/**
 * @file
 * fleet_grid: a scenario x policy x seed grid of short cells sharded
 * over three localhost runner_daemon endpoints through
 * runSweepCellsDist(), each pass followed by a manifest re-entry pass
 * over the same grid. The report bytes of every pass must equal an
 * in-process workers=1 rendering of the grid, computed before the
 * timed passes.
 */

#include <algorithm>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <stdexcept>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "discovery.hpp"
#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "eval/sweep_config.hpp"
#include "layers.hpp"
#include "serve/dist_scheduler.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace ttdbench {

namespace fs = std::filesystem;
using namespace autocat;

namespace {

constexpr int kDaemons = 3;

/** Localhost runner_daemon processes; stopped and reaped on scope exit. */
class Fleet
{
  public:
    Fleet(const std::string &daemon_path, const fs::path &dir)
    {
        fs::create_directories(dir);
        for (int i = 0; i < kDaemons; ++i)
            spawn(daemon_path, dir / ("daemon" + std::to_string(i)));
        for (int i = 0; i < kDaemons; ++i)
            endpoints_.push_back("127.0.0.1:" + awaitPort(i));
    }

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    ~Fleet() { stop(); }

    const std::vector<std::string> &endpoints() const { return endpoints_; }

    /** CPU seconds (user + system) the live daemons have used so far,
     *  from /proc/<pid>/stat (getrusage sees children only once reaped). */
    double
    cpuS() const
    {
        const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
        double total = 0.0;
        for (const pid_t pid : pids_) {
            std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
            std::string stat((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
            // Fields after the parenthesized command: state is field 3,
            // utime and stime are fields 14 and 15.
            std::istringstream rest(stat.substr(stat.rfind(')') + 2));
            std::string field;
            double utime = 0.0, stime = 0.0;
            for (int f = 3; f <= 15 && rest >> field; ++f) {
                if (f == 14)
                    utime = std::stod(field);
                else if (f == 15)
                    stime = std::stod(field);
            }
            total += (utime + stime) / tick;
        }
        return total;
    }

    /** SIGTERM (an idle daemon exits 0), then reap; SIGKILL stragglers. */
    void
    stop()
    {
        for (const pid_t pid : pids_)
            ::kill(pid, SIGTERM);
        for (const pid_t pid : pids_) {
            int status = 0;
            for (int i = 0; i < 5000; ++i) {
                if (::waitpid(pid, &status, WNOHANG) != 0)
                    break;
                if (i == 4999) {
                    ::kill(pid, SIGKILL);
                    ::waitpid(pid, &status, 0);
                }
                ::usleep(1000);
            }
        }
        pids_.clear();
    }

  private:
    void
    spawn(const std::string &daemon_path, const fs::path &dir)
    {
        fs::create_directories(dir);
        const std::string port_file = (dir / "port").string();
        const std::string log_file = (dir / "daemon.log").string();
        const std::string work = (dir / "work").string();
        std::vector<std::string> args = {daemon_path, "--host", "127.0.0.1",
                                         "--port",    "0",      "--port-file",
                                         port_file,   "--work-dir", work};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        const pid_t pid = ::fork();
        if (pid < 0)
            throw std::runtime_error("fork failed");
        if (pid == 0) {
            const int fd = ::open(log_file.c_str(),
                                  O_WRONLY | O_CREAT | O_TRUNC, 0644);
            if (fd >= 0) {
                ::dup2(fd, STDOUT_FILENO);
                ::dup2(fd, STDERR_FILENO);
            }
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
        pids_.push_back(pid);
        port_files_.push_back(port_file);
    }

    std::string
    awaitPort(int i)
    {
        const std::string &path = port_files_[static_cast<std::size_t>(i)];
        for (int t = 0; t < 20000; ++t) {
            std::ifstream in(path);
            std::string port;
            if (in >> port)
                return port;
            int status = 0;
            if (::waitpid(pids_[static_cast<std::size_t>(i)], &status,
                          WNOHANG) != 0)
                throw std::runtime_error("runner_daemon exited at start");
            ::usleep(500);
        }
        throw std::runtime_error("runner_daemon never published its port");
    }

    std::vector<pid_t> pids_;
    std::vector<std::string> port_files_;
    std::vector<std::string> endpoints_;
};

/** 4 scenarios x 3 policies x 4 seeds derived from the workload seed. */
std::vector<SweepCell>
fleetCells(std::uint64_t workload_seed)
{
    Rng rng(workload_seed);
    std::string seeds;
    for (int i = 0; i < 4; ++i)
        seeds += (i ? ", " : "") + std::to_string(1 + rng.uniformInt(99999));
    const SweepConfig config = parseSweepConfig(R"(
num_sets = 1
num_ways = 2
attack_addr_s = 0
attack_addr_e = 2
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 10
tlb.num_sets = 1
tlb.num_ways = 2
ppo_seed = 21
steps_per_epoch = 600
minibatch_size = 100
max_epochs = 2
target_accuracy = 0.9
eval_episodes = 100
sweep.name = fleet_grid
sweep.scenarios = guessing_game, l1l2_private, three_level, tlb_evict
sweep.policies = lru, plru, rrip
sweep.seeds = )" + seeds + "\n");
    return expandSweepGrid(config);
}

std::uintmax_t
directoryBytes(const fs::path &dir)
{
    std::uintmax_t total = 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir)) {
        if (entry.is_regular_file())
            total += entry.file_size();
    }
    return total;
}

struct PassResult
{
    double wallS = 0.0;
    double cpuS = 0.0;  ///< benchmark process + daemons, grid pass only
    double reentryS = 0.0;
    long long envSteps = 0;
    ServeStats serve;
};

/** One fleet pass plus its manifest re-entry pass, checked against the
 *  workers=1 bytes. */
PassResult
runFleetPass(const std::vector<SweepCell> &cells, const Fleet &fleet,
             const fs::path &dir, const std::string &reference,
             WorkloadResult &res, SpanLog *log)
{
    DistSweepOptions opts;
    opts.processes = 0;
    opts.endpoints = fleet.endpoints();
    opts.workDir = (dir / "work").string();
    opts.checkpointDir = (dir / "ckpt").string();
    opts.checkpointEvery = 1;
    opts.manifestDir = (dir / "manifest").string();
    opts.maxRetries = 1;

    PassResult out;
    out.serve.slots = kDaemons;
    const int grid_span = log ? log->open("serve.grid", -1, -1) : -1;
    const double cpu0 = cpuS() + fleet.cpuS();
    const double t0 = nowS();
    const SweepReport report = runSweepCellsDist(
        "fleet_grid", cells, opts, [&](const SweepCellResult &row) {
            const double t = nowS();
            out.serve.completionS.push_back(t);
            out.serve.cellWallS.push_back(row.wallSeconds);
            out.serve.attempts += row.attempts;
            if (log) {
                log->add("serve.cell", t - row.wallSeconds, t, grid_span,
                         static_cast<int>(row.cell.index));
            }
        });
    out.wallS = nowS() - t0;
    out.cpuS = cpuS() + fleet.cpuS() - cpu0;
    if (log)
        log->close(grid_span);

    out.serve.gridWallS = out.wallS;
    out.serve.ckptBytes = static_cast<double>(directoryBytes(dir / "ckpt"));

    res.attempted += static_cast<long>(cells.size());
    for (const SweepCellResult &row : report.cells) {
        if (!row.completed)
            res.fail(row.cell.label + ": " + row.error);
        out.envSteps += row.result.envSteps;
    }
    if (sweepReportJson(report) != reference)
        res.fail("fleet report bytes differ from the workers=1 report");

    const int reentry_span = log ? log->open("serve.reentry", -1, -1) : -1;
    const double t1 = nowS();
    const SweepReport again = runSweepCellsDist("fleet_grid", cells, opts);
    out.reentryS = nowS() - t1;
    if (log)
        log->close(reentry_span);
    out.serve.reentryS = out.reentryS;
    out.serve.cellsAdopted = static_cast<double>(again.cellsAdopted);
    if (again.cellsAdopted != cells.size())
        res.fail("re-entry adopted " + std::to_string(again.cellsAdopted) +
                 " of " + std::to_string(cells.size()) + " cells");
    if (sweepReportJson(again) != reference)
        res.fail("re-entry report bytes differ from the workers=1 report");
    fs::remove_all(dir);
    return out;
}

} // namespace

WorkloadResult
runFleetGrid(const Options &opt)
{
    WorkloadResult res;
    const fs::path root =
        fs::path(opt.outDir) / ("fleet-" + std::to_string(::getpid()));
    fs::remove_all(root);
    fs::create_directories(root);
    const std::vector<SweepCell> cells = fleetCells(opt.seed);

    // Set-up: spawn the daemons and wait for their ports, several times,
    // before anything writes checkpoints. A daemon fsyncs its port file,
    // which would queue behind pending writeback, so flush that first
    // (an earlier run's checkpoints, say). The last fleet serves the run.
    ::sync();
    std::vector<double> setups;
    std::unique_ptr<Fleet> fleet;
    for (int i = 0; i < 13; ++i) {
        fleet.reset();
        const double t0 = nowS();
        fleet = std::make_unique<Fleet>(
            opt.daemonPath, root / ("fleet" + std::to_string(i)));
        setups.push_back(nowS() - t0);
    }

    // The byte oracle, outside the timed region.
    const SweepReport ref = runSweepCells("fleet_grid", cells, 1, {},
                                          (root / "ref_ckpt").string(), 1);
    const std::string reference = sweepReportJson(ref);
    for (const SweepCellResult &row : ref.cells) {
        if (!row.completed)
            res.fail(row.cell.label + " (workers=1): " + row.error);
    }

    if (!opt.trace) {
        // Whole passes only, as many as fit in the run's time.
        std::vector<PassResult> passes;
        const double t0 = nowS();
        double last = 0.0;
        do {
            const double p0 = nowS();
            passes.push_back(runFleetPass(
                cells, *fleet, root / ("pass" + std::to_string(passes.size())),
                reference, res, nullptr));
            last = nowS() - p0;
        } while (nowS() - t0 + last <= opt.seconds);
        fleet->stop();
        const Usage kids = Usage::children();

        std::vector<double> wall, cps, rate, cpu;
        for (const PassResult &p : passes) {
            const double steps = static_cast<double>(p.envSteps);
            wall.push_back(p.wallS);
            cps.push_back(static_cast<double>(cells.size()) / p.wallS);
            rate.push_back(steps / p.wallS);
            cpu.push_back(p.cpuS * 1e6 / steps);
        }
        res.metrics = {
            {"discovery_s", median(wall), "s"},
            {"train_steps_per_s", median(rate), "steps/s"},
            {"cells_per_s", median(cps), "cells/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", std::max(Usage::self().maxRssMb, kids.maxRssMb),
             "MB"},
            {"cpu_us_per_step", median(cpu), "us"},
        };
        res.counts = {
            {"grid_env_steps", static_cast<double>(passes[0].envSteps),
             "steps"},
            {"cells", static_cast<double>(cells.size()), "count"},
            {"passes", static_cast<double>(passes.size()), "count"},
        };
        fs::remove_all(root);
        return res;
    }

    // Traced run: an untraced pass for reference, a traced pass, then a
    // few grid cells traced in-process for the learner and env layers.
    const PassResult plain =
        runFleetPass(cells, *fleet, root / "plain", reference, res, nullptr);
    TraceState trace;
    const PassResult traced =
        runFleetPass(cells, *fleet, root / "traced", reference, res,
                     &trace.log);
    fleet->stop();

    ProcDelta proc;
    proc.before = Usage::self();
    std::vector<CellRun> inproc;
    for (std::size_t i = 0; i < cells.size(); i += cells.size() / 4) {
        const Cell cell{cells[i].label, cells[i].config};
        inproc.push_back(runTraced(cell, static_cast<int>(i), trace));
        if (!inproc.back().completed)
            res.fail(cell.name + " (traced in-process): " +
                     inproc.back().error);
    }
    proc.after = Usage::self();

    const Cell probe_cell{cells.front().label, cells.front().config};
    res.metrics = layerMetrics(probeLearner(probe_cell, opt.seed), trace,
                               proc, traced.serve,
                               traced.wallS / plain.wallS);
    res.counts = {
        {"grid_env_steps", static_cast<double>(plain.envSteps), "steps"},
        {"cells", static_cast<double>(cells.size()), "count"},
    };
    res.cellsJson = cellRunsJson(inproc);
    res.breakdownJson = trace.log.selfTimeJson();
    trace.log.writeJsonl(opt.outDir + "/spans_" + opt.workload + ".jsonl");
    fs::remove_all(root);
    return res;
}

} // namespace ttdbench
