/**
 * @file
 * Timing decorators for the env layer. TimedVecEnv wraps the Sync
 * VecEnv that makeVecEnv() builds, and hands out a TimedEnv around each
 * env(i), so the trainer's collection path (VecEnv::stepAll) and its
 * evaluation path (env(i).step) are both timed from outside the
 * library. Every call forwards unchanged, so training through the
 * decorators is bitwise-identical to training on the bare VecEnv
 * (tests/test_decorators.cpp pins that).
 */

#ifndef TTDBENCH_DECORATORS_HPP
#define TTDBENCH_DECORATORS_HPP

#include <memory>
#include <vector>

#include "rl/vec_env.hpp"
#include "trace.hpp"

namespace ttdbench {

/** Call counts and busy seconds the decorators accumulate. */
struct EnvCounters
{
    long stepAllCalls = 0;  ///< collection path
    double stepAllS = 0.0;
    long resetAllCalls = 0;
    double resetAllS = 0.0;
    long stepCalls = 0;  ///< single-env steps (evaluation path)
    double stepS = 0.0;
    long resetCalls = 0;
    double resetS = 0.0;

    /** Seconds inside the env layer, all four kinds of call. */
    double busyS() const { return stepAllS + resetAllS + stepS + resetS; }

    void add(const EnvCounters &o);
};

/** Where the decorators attach their spans (no log: counters only). */
struct SpanSink
{
    SpanLog *log = nullptr;
    int parent = -1;
    int cell = -1;
};

class TimedEnv : public autocat::Environment
{
  public:
    TimedEnv(autocat::Environment &inner, EnvCounters &counters,
             const SpanSink &sink);

    std::size_t observationSize() const override;
    std::size_t numActions() const override;
    std::vector<float> reset() override;
    autocat::StepResult step(std::size_t action) override;
    void reseed(std::uint64_t seed) override;
    const std::uint8_t *actionMask() const override;

  private:
    autocat::Environment &inner_;
    EnvCounters &counters_;
    const SpanSink &sink_;
};

class TimedVecEnv : public autocat::VecEnv
{
  public:
    /** Take ownership of @p inner and decorate each of its streams. */
    explicit TimedVecEnv(std::unique_ptr<autocat::VecEnv> inner);

    TimedVecEnv(const TimedVecEnv &) = delete;
    TimedVecEnv &operator=(const TimedVecEnv &) = delete;

    std::size_t numEnvs() const override;
    std::size_t observationSize() const override;
    std::size_t numActions() const override;
    autocat::Matrix resetAll() override;
    autocat::VecStepResult
    stepAll(const std::vector<std::size_t> &actions) override;
    autocat::Environment &env(std::size_t i) override;

    /** The undecorated stream (sequence extraction needs the concrete
     *  CacheGuessingGame). */
    autocat::Environment &innerEnv(std::size_t i);

    EnvCounters &counters() { return counters_; }
    SpanSink &sink() { return sink_; }

  private:
    std::unique_ptr<autocat::VecEnv> inner_;
    EnvCounters counters_;
    SpanSink sink_;
    std::vector<std::unique_ptr<TimedEnv>> envs_;
};

} // namespace ttdbench

#endif // TTDBENCH_DECORATORS_HPP
