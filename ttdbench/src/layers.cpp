#include "layers.hpp"

#include <algorithm>
#include <numeric>

#include "env/env_registry.hpp"
#include "rl/actor_critic.hpp"
#include "rl/adam.hpp"
#include "rl/nn.hpp"
#include "util/rng.hpp"

namespace ttdbench {

using autocat::AcOutput;
using autocat::ActorCritic;
using autocat::Adam;
using autocat::Matrix;
using autocat::ParamBlock;
using autocat::Rng;

double
LearnerProbe::updateEstMs() const
{
    return (forwardUs + backwardUs + clipUs + adamUs) *
           static_cast<double>(minibatchesPerEpoch) / 1000.0;
}

LearnerProbe
probeLearner(const Cell &cell, std::uint64_t seed)
{
    const autocat::PpoConfig &ppo = cell.config.ppo;
    const auto env =
        autocat::makeEnv(cell.config.scenario, cell.config.env);
    const std::size_t obs_dim = env->observationSize();
    const std::size_t na = env->numActions();
    const std::size_t mb = static_cast<std::size_t>(
        std::min(ppo.minibatchSize, ppo.stepsPerEpoch));

    Rng rng(seed);
    ActorCritic net(obs_dim, na, ppo.hidden, ppo.layers, rng);
    Adam adam(net.paramBlocks(), ppo.lr);
    Matrix obs(mb, obs_dim);
    for (std::size_t i = 0; i < obs.size(); ++i)
        obs.data()[i] = static_cast<float>(rng.uniformDouble());
    Matrix dlogits(mb, na);
    for (std::size_t i = 0; i < dlogits.size(); ++i)
        dlogits.data()[i] =
            static_cast<float>((rng.uniformDouble() - 0.5) * 1e-3);
    std::vector<float> dvalues(mb);
    for (float &d : dvalues)
        d = static_cast<float>((rng.uniformDouble() - 0.5) * 1e-3);

    // Enough repetitions for a stable median without dominating the
    // traced run: ~64k rows through each kernel, at least 8 calls.
    const int reps = static_cast<int>(std::max<std::size_t>(8, 65536 / mb));
    std::vector<double> fwd, bwd, clip, step;
    for (int r = 0; r < reps + 2; ++r) {
        const double t0 = nowS();
        const AcOutput out = net.forward(obs);
        const double t1 = nowS();
        net.zeroGrad();
        net.backward(dlogits, dvalues);
        const double t2 = nowS();
        std::vector<ParamBlock> blocks = net.paramBlocks();
        autocat::clipGradNorm(blocks, ppo.maxGradNorm);
        const double t3 = nowS();
        adam.step(blocks);
        const double t4 = nowS();
        if (r < 2 || out.logits.rows() != mb)
            continue;  // warm-up
        fwd.push_back(t1 - t0);
        bwd.push_back(t2 - t1);
        clip.push_back(t3 - t2);
        step.push_back(t4 - t3);
    }

    // forwardOne is ~µs: time batches of calls for clock resolution.
    std::vector<float> row(obs.data(), obs.data() + obs_dim);
    std::vector<double> one;
    constexpr int kBatch = 200;
    for (int r = 0; r < 21; ++r) {
        const double t0 = nowS();
        for (int k = 0; k < kBatch; ++k)
            row[0] = net.forwardOne(row).logits.data()[0] * 0.0f;
        one.push_back((nowS() - t0) / kBatch);
    }

    LearnerProbe p;
    p.forwardUs = median(fwd) * 1e6;
    p.backwardUs = median(bwd) * 1e6;
    p.clipUs = median(clip) * 1e6;
    p.adamUs = median(step) * 1e6;
    p.forwardOneUs = median(one) * 1e6;
    const long per_pass = (ppo.stepsPerEpoch + ppo.minibatchSize - 1) /
                          ppo.minibatchSize;
    p.minibatchesPerEpoch = per_pass * ppo.updatePasses;
    return p;
}

Metrics
layerMetrics(const LearnerProbe &probe, const TraceState &trace,
             const ProcDelta &proc, const ServeStats &serve,
             double trace_overhead_ratio)
{
    const double epochs = static_cast<double>(trace.epochS.size());
    const double epoch_s =
        std::accumulate(trace.epochS.begin(), trace.epochS.end(), 0.0);
    const double eval_s = std::accumulate(trace.evaluateS.begin(),
                                          trace.evaluateS.end(), 0.0);
    const EnvCounters &env = trace.env;
    const auto per = [](double total, double n) {
        return n > 0 ? total / n : 0.0;
    };
    const auto ms = [](std::vector<double> s) {
        for (double &v : s)
            v *= 1000.0;
        return s;
    };

    Metrics m;
    m.push_back({"rl.forward_us", probe.forwardUs, "us"});
    m.push_back({"rl.backward_us", probe.backwardUs, "us"});
    m.push_back({"rl.adam_us", probe.adamUs, "us"});
    m.push_back({"rl.clip_us", probe.clipUs, "us"});
    m.push_back({"rl.forward_one_us", probe.forwardOneUs, "us"});
    m.push_back({"rl.minibatches_per_epoch",
                 static_cast<double>(probe.minibatchesPerEpoch), "count"});
    m.push_back({"rl.update_est_ms", probe.updateEstMs(), "ms"});
    addPercentiles(m, "rl.run_epoch_ms", ms(trace.epochS), "ms");
    addPercentiles(m, "rl.evaluate_ms", ms(trace.evaluateS), "ms");
    // Collection outside the env layer: sampling, GAE, buffer writes.
    const double epoch_env_s = env.stepAllS + env.resetAllS;
    m.push_back({"rl.collect_other_ms",
                 per((epoch_s - epoch_env_s) * 1000.0, epochs) -
                     probe.updateEstMs(),
                 "ms"});

    m.push_back({"env.step_all.calls",
                 static_cast<double>(env.stepAllCalls), "count"});
    m.push_back({"env.step_all_us",
                 per(env.stepAllS * 1e6,
                     static_cast<double>(env.stepAllCalls)),
                 "us"});
    m.push_back({"env.step_us",
                 per(env.stepS * 1e6, static_cast<double>(env.stepCalls)),
                 "us"});
    m.push_back({"env.share", per(env.busyS(), epoch_s + eval_s), "ratio"});

    const double cpu_s = (proc.after.userS - proc.before.userS) +
                         (proc.after.sysS - proc.before.sysS);
    m.push_back({"proc.minflt_per_epoch",
                 per(static_cast<double>(proc.after.minflt -
                                         proc.before.minflt),
                     epochs),
                 "count"});
    m.push_back({"proc.sys_cpu_ratio",
                 per(proc.after.sysS - proc.before.sysS, cpu_s), "ratio"});

    const double cells = static_cast<double>(serve.cellWallS.size());
    const double compute_s = std::accumulate(serve.cellWallS.begin(),
                                             serve.cellWallS.end(), 0.0);
    const double capacity_s = serve.slots * serve.gridWallS;
    std::vector<double> completions = serve.completionS;
    std::sort(completions.begin(), completions.end());
    std::vector<double> gaps_ms;
    for (std::size_t i = 1; i < completions.size(); ++i)
        gaps_ms.push_back((completions[i] - completions[i - 1]) * 1000.0);
    m.push_back({"serve.cell_compute_s", compute_s, "s"});
    m.push_back({"serve.fleet_busy_ratio", per(compute_s, capacity_s),
                 "ratio"});
    m.push_back({"serve.dispatch_overhead_ms",
                 per((capacity_s - compute_s) * 1000.0, cells), "ms"});
    m.push_back({"serve.attempts_per_cell", per(serve.attempts, cells),
                 "count"});
    addPercentiles(m, "serve.completion_gap_ms", gaps_ms, "ms");
    m.push_back({"serve.ckpt_bytes_per_cell", per(serve.ckptBytes, cells),
                 "bytes"});
    m.push_back({"serve.reentry_ms", serve.reentryS * 1000.0, "ms"});
    m.push_back({"serve.cells_adopted", serve.cellsAdopted, "count"});

    m.push_back({"core.epochs", epochs, "count"});
    m.push_back({"trace.overhead_ratio", trace_overhead_ratio, "ratio"});
    return m;
}

} // namespace ttdbench
