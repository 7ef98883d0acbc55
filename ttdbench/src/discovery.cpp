#include "discovery.hpp"

#include <algorithm>
#include <sstream>

#include "attacks/classifier.hpp"
#include "core/campaign.hpp"
#include "core/config_parser.hpp"
#include "env/env_registry.hpp"
#include "layers.hpp"
#include "rl/ppo.hpp"
#include "speed_ref.hpp"
#include "workload.hpp"

namespace ttdbench {

using namespace autocat;

Cell
makeCell(const std::string &name, const std::string &config_text)
{
    return Cell{name, parseExplorationConfig(config_text)};
}

namespace {

/** The stop rule trainUntil() and campaign phases share. */
bool
reachedTarget(const ExplorationConfig &config, const EvalStats &eval)
{
    return eval.guesses >= eval.episodes &&
           eval.guessAccuracy >= std::max(0.0, config.targetAccuracy);
}

void
finishCell(CellRun &run, const ExplorationResult &fin)
{
    run.completed = true;
    run.converged = fin.converged;
    run.stepsToDiscovery = fin.stepsToDiscovery;
    run.envSteps = fin.envSteps;
    run.finalAccuracy = fin.finalAccuracy;
    run.category = categoryLabel(fin.category);
    run.sequence = fin.sequence.toString(false) + " -> " + fin.finalGuess;
}

} // namespace

/** A SpeedRef at @p cell's minibatch x hidden shape. */
SpeedRef
speedRefFor(const Cell &cell)
{
    const autocat::PpoConfig &ppo = cell.config.ppo;
    return SpeedRef(static_cast<std::size_t>(
                        std::min(ppo.minibatchSize, ppo.stepsPerEpoch)),
                    static_cast<std::size_t>(ppo.hidden));
}

CellRun
runUntraced(const Cell &cell, SpeedRef &ref)
{
    CellRun run;
    run.name = cell.name;
    run.refStepS = ref.refStepS();
    run.hostSpeed.push_back(ref.sample());
    const double t0 = nowS();
    double last_t = t0;
    Usage last_u = Usage::self();
    double paused = 0.0;  // spent sampling the references
    const auto since = [&](double t, const Usage &u) {
        return WorkTimes{t - last_t, u.userS - last_u.userS,
                         u.sysS - last_u.sysS};
    };
    try {
        CampaignConfig config;
        config.base = cell.config;
        TrainingSession session(config);
        const CampaignResult result =
            session.run([&](const EpochStats &stats) {
                const double t = nowS();
                run.epochTimes.push_back(since(t, Usage::self()));
                ++run.epochs;
                run.trainS = t - t0 - paused;
                if (run.discoveryS == 0.0 &&
                    reachedTarget(cell.config, stats.eval))
                    run.discoveryS = run.trainS;
                run.hostSpeed.push_back(ref.sample());
                last_t = nowS();
                last_u = Usage::self();
                paused += last_t - t;
            });
        finishCell(run, result.final);
    } catch (const std::exception &e) {
        run.error = e.what();
    }
    const double t1 = nowS();
    run.cellS = t1 - t0 - paused;
    run.tail = since(t1, Usage::self());
    run.hostSpeed.push_back(ref.sample());
    if (!run.converged)
        run.discoveryS = run.trainS;  // budget exhausted
    return run;
}

CellRun
runTraced(const Cell &cell, int index, TraceState &state)
{
    const ExplorationConfig &cfg = cell.config;
    CellRun run;
    run.name = cell.name;
    SpanLog &log = state.log;
    const double t0 = nowS();
    const int cell_span = log.open("cell", -1, index);
    try {
        const int setup_span = log.open("core.setup", cell_span, index);
        const ScenarioContext ctx(cfg.env);
        TimedVecEnv vec(makeVecEnv(
            cfg.scenario, ctx,
            static_cast<std::size_t>(std::max(1, cfg.numStreams)),
            VecEnvKind::Sync));
        PpoTrainer trainer(vec, cfg.ppo);
        log.close(setup_span);
        SpanSink &sink = vec.sink();
        sink.log = &log;
        sink.cell = index;

        // The trainUntil() loop, one span per runEpoch()/evaluate().
        ExplorationResult fin;
        for (int e = 1; e <= cfg.maxEpochs; ++e) {
            sink.parent = log.open("rl.run_epoch", cell_span, index);
            trainer.runEpoch();
            log.close(sink.parent);
            const Span &epoch = log.spans()[sink.parent];
            state.epochS.push_back(epoch.end - epoch.start);

            sink.parent = log.open("rl.evaluate", cell_span, index);
            const EvalStats eval =
                trainer.evaluate(cfg.evalEpisodes, /*greedy=*/true);
            log.close(sink.parent);
            const Span &ev = log.spans()[sink.parent];
            state.evaluateS.push_back(ev.end - ev.start);

            ++run.epochs;
            run.trainS = nowS() - t0;
            if (reachedTarget(cfg, eval)) {
                fin.converged = true;
                fin.epochsToConverge = e;
                fin.stepsToDiscovery = trainer.totalEnvSteps();
                run.discoveryS = run.trainS;
                break;
            }
        }
        fin.envSteps = trainer.totalEnvSteps();

        // explore()'s epilogue: final greedy evaluation, then the
        // attack sequence replayed from the undecorated stream.
        sink.parent = log.open("rl.final_evaluate", cell_span, index);
        fin.finalAccuracy =
            trainer.evaluate(cfg.evalEpisodes, /*greedy=*/true)
                .guessAccuracy;
        log.close(sink.parent);
        sink.parent = log.open("core.extract", cell_span, index);
        if (auto *game = dynamic_cast<CacheGuessingGame *>(&vec.innerEnv(0))) {
            fin.sequence =
                extractSequence(*game, trainer.policy(), &fin.finalGuess);
            fin.category = classifyAttack(fin.sequence, ctx.env);
        }
        log.close(sink.parent);
        sink.log = nullptr;
        finishCell(run, fin);
        state.env.add(vec.counters());
    } catch (const std::exception &e) {
        run.error = e.what();
    }
    log.close(cell_span);
    run.cellS = nowS() - t0;
    if (!run.converged)
        run.discoveryS = run.trainS;
    return run;
}

double
timeSetup(const std::vector<Cell> &cells)
{
    double total = 0.0;
    for (const Cell &cell : cells) {
        const ExplorationConfig &cfg = cell.config;
        const double t0 = nowS();
        auto vec = makeVecEnv(
            cfg.scenario, ScenarioContext(cfg.env),
            static_cast<std::size_t>(std::max(1, cfg.numStreams)),
            VecEnvKind::Sync);
        PpoTrainer trainer(*vec, cfg.ppo);
        total += nowS() - t0;
    }
    return total;
}

std::string
cellRunsJson(const std::vector<CellRun> &runs)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const CellRun &r = runs[i];
        os << (i ? ",\n  " : "\n  ") << "{\"cell\": " << jsonString(r.name)
           << ", \"completed\": " << (r.completed ? "true" : "false")
           << ", \"converged\": " << (r.converged ? "true" : "false")
           << ", \"steps_to_discovery\": " << r.stepsToDiscovery
           << ", \"env_steps\": " << r.envSteps
           << ", \"epochs\": " << r.epochs
           << ", \"discovery_s\": " << jsonNumber(r.discoveryS)
           << ", \"cell_s\": " << jsonNumber(r.cellS)
           << ", \"final_accuracy\": " << jsonNumber(r.finalAccuracy)
           << ", \"category\": " << jsonString(r.category)
           << ", \"sequence\": " << jsonString(r.sequence)
           << ", \"error\": " << jsonString(r.error) << "}";
    }
    os << "\n]";
    return os.str();
}

// ------------------------------------------------------------ workloads

namespace {

/** PPO shape of the paper (Table V footnote; ExplorationConfig
 *  defaults spelled out so the workload does not drift with them). */
const char *const kPaperPpo = R"(
steps_per_epoch = 3000
minibatch_size = 500
update_passes = 6
hidden = 128
layers = 2
target_accuracy = 0.97
eval_episodes = 100
)";

/** Paper-shaped cells with pinned seeds (README.md, "Seeds"). */
std::vector<Cell>
paperCells()
{
    const std::string ppo = kPaperPpo;
    return {
        // Table V: 1-set 4-way LRU cache, 0/E victim.
        makeCell("guessing_game/4way_lru", ppo + R"(
scenario = guessing_game
num_sets = 1
num_ways = 4
rep_policy = lru
attack_addr_s = 0
attack_addr_e = 4
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 16
seed = 1
ppo_seed = 1
max_epochs = 150
)"),
        // Prime+probe over a 2-entry fully-associative TLB.
        makeCell("tlb_evict/2way", ppo + R"(
scenario = tlb_evict
tlb.num_sets = 1
tlb.num_ways = 2
tlb.rep_policy = lru
tlb.walk_levels = 2
tlb.level_bits = 2
attack_addr_s = 0
attack_addr_e = 2
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 10
seed = 7
ppo_seed = 21
max_epochs = 100
)"),
    };
}

/** examples/configs/mask_bakeoff.cfg's shape: unmasked and masked PPO
 *  on three scenarios, seeded as that sweep seeds its grid seed 7
 *  (ppo_seed = 21 + 1000003 * 7). */
std::vector<Cell>
bakeoffCells()
{
    const std::string base = R"(
num_sets = 1
num_ways = 2
attack_addr_s = 0
attack_addr_e = 2
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 10
seed = 7
ppo_seed = 7000042
steps_per_epoch = 600
minibatch_size = 100
max_epochs = 120
target_accuracy = 0.9
eval_episodes = 100
)";
    const std::string masked = R"(
mask_actions = true
mask_useless_actions = true
useless_action_penalty = 0.02
)";
    std::vector<Cell> cells;
    for (const char *scenario :
         {"guessing_game", "l1l2_private", "three_level"}) {
        const std::string s = std::string("scenario = ") + scenario + "\n";
        cells.push_back(makeCell(std::string(scenario) + "/ppo", base + s));
        cells.push_back(
            makeCell(std::string(scenario) + "/ppo_masked", base + s + masked));
    }
    return cells;
}

/** Correctness gate for one discovery cell run. */
void
checkCell(WorkloadResult &res, const CellRun &run, const std::string &pass)
{
    ++res.attempted;
    if (!run.completed)
        res.fail(run.name + " " + pass + ": threw: " + run.error);
    else if (!run.converged)
        res.fail(run.name + " " + pass + ": missed the target within " +
                 std::to_string(run.epochs) + " epochs");
    else if (run.category == categoryLabel(AttackCategory::Unknown))
        res.fail(run.name + " " + pass + ": sequence \"" + run.sequence +
                 "\" classifies as Unknown");
}

/** Every repeat must reproduce the first pass's steps exactly. */
void
checkSameSteps(WorkloadResult &res, const std::vector<CellRun> &first,
               const std::vector<CellRun> &other, const std::string &what)
{
    for (std::size_t i = 0; i < first.size(); ++i) {
        if (other[i].stepsToDiscovery != first[i].stepsToDiscovery) {
            res.fail(first[i].name + ": " + what + " steps_to_discovery " +
                     std::to_string(other[i].stepsToDiscovery) + " != " +
                     std::to_string(first[i].stepsToDiscovery));
        }
    }
}

/** Literal wall-clock totals of one pass. */
struct PassTotals
{
    double discoveryS = 0.0;
    long long steps = 0;  ///< steps_to_discovery
};

PassTotals
totals(const std::vector<CellRun> &runs)
{
    PassTotals t;
    for (const CellRun &r : runs) {
        t.discoveryS += r.discoveryS;
        t.steps += std::max(0LL, r.stepsToDiscovery);
    }
    return t;
}

/**
 * One pass's times rescaled to the reference speeds (speed_ref.hpp):
 * each epoch by the reference samples taken just before and just after
 * it, the tail (final evaluation and sequence extraction) by those
 * around it.
 */
struct NormalizedTotals
{
    double discoveryS = 0.0;  ///< epochs, start -> passing evaluation
    double cellS = 0.0;       ///< epochs + tail
    double cpuS = 0.0;        ///< user + system time of the epochs
    long long envSteps = 0;
};

NormalizedTotals
normalizedTotals(const std::vector<CellRun> &runs)
{
    NormalizedTotals t;
    for (const CellRun &r : runs) {
        const auto speed = [&r](std::size_t i) {
            return r.hostSpeed[std::min(i, r.hostSpeed.size() - 1)];
        };
        const std::size_t n = r.epochTimes.size();
        for (std::size_t e = 0; e < n; ++e) {
            const WorkTimes w = normalized(r.epochTimes[e], speed(e),
                                           speed(e + 1), r.refStepS);
            t.discoveryS += w.wallS;
            t.cpuS += w.userS + w.sysS;
        }
        t.cellS +=
            normalized(r.tail, speed(n), speed(n + 1), r.refStepS).wallS;
        t.envSteps += r.envSteps;
    }
    t.cellS += t.discoveryS;
    return t;
}

std::vector<CellRun>
runPass(const std::vector<Cell> &cells, SpeedRef &ref)
{
    std::vector<CellRun> runs;
    for (const Cell &cell : cells)
        runs.push_back(runUntraced(cell, ref));
    return runs;
}

/** Many set-ups, each rescaled by the reference step around it like an
 *  epoch's user time (the median is reported, so one slow allocation
 *  does not show). */
void
timeSetups(const std::vector<Cell> &cells, SpeedRef &ref,
           std::vector<double> &out)
{
    HostSpeed before = ref.sample();
    for (int i = 0; i < 25; ++i) {
        const double s = timeSetup(cells);
        const HostSpeed after = ref.sample();
        out.push_back(
            normalized(WorkTimes{s, s, 0.0}, before, after, ref.refStepS())
                .wallS);
        before = after;
    }
}


WorkloadResult
runDiscovery(const std::vector<Cell> &cells, const Options &opt)
{
    // The cells run in the listed order on every seed (training seeds
    // are pinned): the order sets the allocator's state, and with it
    // the learner's page faults, which moved discovery_s by ~5%.
    const Cell &probe_cell = cells.front();
    WorkloadResult res;
    // Every cell of a workload has the probe cell's shape.
    SpeedRef ref = speedRefFor(probe_cell);

    if (!opt.trace) {
        std::vector<double> setups;
        timeSetups(cells, ref, setups);
        // Whole passes only, as many as fit in the run's time.
        std::vector<std::vector<CellRun>> passes;
        const double t0 = nowS();
        double last = 0.0;
        do {
            const double p0 = nowS();
            passes.push_back(runPass(cells, ref));
            last = nowS() - p0;
        } while (nowS() - t0 + last <= opt.seconds);
        timeSetups(cells, ref, setups);

        std::vector<double> wall, discovery, cell, cpu, gflops, fault_us;
        for (std::size_t p = 0; p < passes.size(); ++p) {
            const std::string tag = "pass " + std::to_string(p + 1);
            for (const CellRun &r : passes[p]) {
                checkCell(res, r, tag);
                for (const HostSpeed &s : r.hostSpeed) {
                    gflops.push_back(stepFlopsPerS(s, r.refStepS) / 1e9);
                    fault_us.push_back(faultSeconds(s) * 1e6);
                }
            }
            if (p > 0)
                checkSameSteps(res, passes[0], passes[p], tag);
            wall.push_back(totals(passes[p]).discoveryS);
            const NormalizedTotals n = normalizedTotals(passes[p]);
            discovery.push_back(n.discoveryS);
            cell.push_back(n.cellS);
            cpu.push_back(n.cpuS);
        }
        // Every pass runs the same cells to the same steps.
        const double steps =
            static_cast<double>(normalizedTotals(passes[0]).envSteps);
        res.metrics = {
            {"discovery_s", median(discovery), "s"},
            {"train_steps_per_s", steps / median(discovery), "steps/s"},
            {"cells_per_s", static_cast<double>(cells.size()) / median(cell),
             "cells/s"},
            {"setup_s", median(setups), "s"},
            {"peak_rss_mb", Usage::self().maxRssMb, "MB"},
            {"cpu_us_per_step", median(cpu) * 1e6 / steps, "us"},
        };
        res.counts = {
            {"steps_to_discovery",
             static_cast<double>(totals(passes[0]).steps), "steps"},
            {"discovery_wall_s", median(wall), "s"},
            {"ref_gflops", median(gflops), "GFLOP/s"},
            {"ref_fault_us", median(fault_us), "us"},
            {"passes", static_cast<double>(passes.size()), "count"},
        };
        res.cellsJson = cellRunsJson(passes[0]);
        return res;
    }

    // Traced run: an untraced pass for reference, then the traced pass.
    const std::vector<CellRun> plain = runPass(cells, ref);
    TraceState trace;
    std::vector<CellRun> traced;
    ServeStats serve;
    ProcDelta proc;
    proc.before = Usage::self();
    const double t0 = nowS();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        traced.push_back(runTraced(cells[i], static_cast<int>(i), trace));
        serve.cellWallS.push_back(traced.back().cellS);
        serve.completionS.push_back(nowS());
        serve.attempts += 1.0;
    }
    serve.gridWallS = nowS() - t0;
    proc.after = Usage::self();

    for (const CellRun &r : plain)
        checkCell(res, r, "untraced");
    for (const CellRun &r : traced)
        checkCell(res, r, "traced");
    checkSameSteps(res, plain, traced, "traced");

    const double overhead =
        totals(traced).discoveryS / totals(plain).discoveryS;
    res.metrics = layerMetrics(probeLearner(probe_cell, opt.seed), trace,
                               proc, serve, overhead);
    res.counts = {
        {"steps_to_discovery", static_cast<double>(totals(plain).steps),
         "steps"},
    };
    res.cellsJson = cellRunsJson(traced);
    res.breakdownJson = trace.log.selfTimeJson();
    trace.log.writeJsonl(opt.outDir + "/spans_" + opt.workload + ".jsonl");
    return res;
}

} // namespace

WorkloadResult
runPaperDiscovery(const Options &options)
{
    return runDiscovery(paperCells(), options);
}

WorkloadResult
runBakeoffDiscovery(const Options &options)
{
    return runDiscovery(bakeoffCells(), options);
}

} // namespace ttdbench
