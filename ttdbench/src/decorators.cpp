#include "decorators.hpp"

namespace ttdbench {

using autocat::Environment;
using autocat::Matrix;
using autocat::StepResult;
using autocat::VecStepResult;

namespace {

/** Time one forwarded call into @p busy_s (and a span when tracing). */
template <class F>
auto
timed(const char *name, long &calls, double &busy_s, const SpanSink &sink,
      F &&call)
{
    const double t0 = nowS();
    auto result = call();
    const double t1 = nowS();
    ++calls;
    busy_s += t1 - t0;
    if (sink.log)
        sink.log->add(name, t0, t1, sink.parent, sink.cell);
    return result;
}

} // namespace

void
EnvCounters::add(const EnvCounters &o)
{
    stepAllCalls += o.stepAllCalls;
    stepAllS += o.stepAllS;
    resetAllCalls += o.resetAllCalls;
    resetAllS += o.resetAllS;
    stepCalls += o.stepCalls;
    stepS += o.stepS;
    resetCalls += o.resetCalls;
    resetS += o.resetS;
}

TimedEnv::TimedEnv(Environment &inner, EnvCounters &counters,
                   const SpanSink &sink)
    : inner_(inner), counters_(counters), sink_(sink)
{
}

std::size_t
TimedEnv::observationSize() const
{
    return inner_.observationSize();
}

std::size_t
TimedEnv::numActions() const
{
    return inner_.numActions();
}

std::vector<float>
TimedEnv::reset()
{
    return timed("env.reset", counters_.resetCalls, counters_.resetS, sink_,
                 [&] { return inner_.reset(); });
}

StepResult
TimedEnv::step(std::size_t action)
{
    return timed("env.step", counters_.stepCalls, counters_.stepS, sink_,
                 [&] { return inner_.step(action); });
}

void
TimedEnv::reseed(std::uint64_t seed)
{
    inner_.reseed(seed);
}

const std::uint8_t *
TimedEnv::actionMask() const
{
    return inner_.actionMask();
}

TimedVecEnv::TimedVecEnv(std::unique_ptr<autocat::VecEnv> inner)
    : inner_(std::move(inner))
{
    for (std::size_t i = 0; i < inner_->numEnvs(); ++i) {
        envs_.push_back(
            std::make_unique<TimedEnv>(inner_->env(i), counters_, sink_));
    }
}

std::size_t
TimedVecEnv::numEnvs() const
{
    return inner_->numEnvs();
}

std::size_t
TimedVecEnv::observationSize() const
{
    return inner_->observationSize();
}

std::size_t
TimedVecEnv::numActions() const
{
    return inner_->numActions();
}

Matrix
TimedVecEnv::resetAll()
{
    return timed("env.reset_all", counters_.resetAllCalls,
                 counters_.resetAllS, sink_, [&] { return inner_->resetAll(); });
}

VecStepResult
TimedVecEnv::stepAll(const std::vector<std::size_t> &actions)
{
    return timed("env.step_all", counters_.stepAllCalls,
                 counters_.stepAllS, sink_,
                 [&] { return inner_->stepAll(actions); });
}

Environment &
TimedVecEnv::env(std::size_t i)
{
    return *envs_[i];
}

Environment &
TimedVecEnv::innerEnv(std::size_t i)
{
    return inner_->env(i);
}

} // namespace ttdbench
