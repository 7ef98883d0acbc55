/**
 * @file
 * Vectorized environment abstraction.
 *
 * A VecEnv steps N homogeneous environments ("streams") in lock-step
 * behind a batched interface: resetAll() yields an N x obs_dim
 * observation matrix and stepAll() advances every stream by one action.
 * Streams auto-reset: when a stream's episode ends, its row in the
 * returned observation batch is already the first observation of the
 * next episode (the done flag and step info still describe the step
 * that ended the episode).
 *
 * SyncVecEnv steps the streams sequentially on the calling thread.
 * Each stream owns its state and RNG, so N streams produce the same
 * trajectories as N sequential single-env runs.
 */

#ifndef AUTOCAT_RL_VEC_ENV_HPP
#define AUTOCAT_RL_VEC_ENV_HPP

#include <cstdint>
#include <memory>
#include <vector>

#include "rl/env_interface.hpp"
#include "rl/mat.hpp"

namespace autocat {

/** Result of stepping every stream once. */
struct VecStepResult
{
    /**
     * N x obs_dim next observations. For a stream whose episode ended
     * this step, the row is the fresh observation after auto-reset.
     */
    Matrix obs;
    std::vector<double> rewards;        ///< per-stream step reward
    std::vector<std::uint8_t> dones;    ///< 1 where the episode ended
    std::vector<StepInfo> infos;        ///< per-stream step metadata
};

/** Batched Gym-like interface over N environment streams. */
class VecEnv
{
  public:
    virtual ~VecEnv() = default;

    /** Number of streams. */
    virtual std::size_t numEnvs() const = 0;

    /** Dimension of the flat observation vector (shared by streams). */
    virtual std::size_t observationSize() const = 0;

    /** Size of the discrete action space (shared by streams). */
    virtual std::size_t numActions() const = 0;

    /** Reset every stream; returns the N x obs_dim initial batch. */
    virtual Matrix resetAll() = 0;

    /**
     * Step every stream with its action (size numEnvs()). Streams whose
     * episodes end are reset automatically; see VecStepResult::obs.
     */
    virtual VecStepResult stepAll(const std::vector<std::size_t> &actions) = 0;

    /**
     * Direct access to stream @p i — for decoration (detectors),
     * inspection, and sequential evaluation. Must not be used
     * concurrently with resetAll()/stepAll().
     */
    virtual Environment &env(std::size_t i) = 0;
};

/** Sequential adapter: steps the streams one by one on the caller. */
class SyncVecEnv : public VecEnv
{
  public:
    /** Own the given environments (all non-null, same dimensions). */
    explicit SyncVecEnv(std::vector<std::unique_ptr<Environment>> envs);

    /** Borrow externally-owned environments (must outlive the adapter). */
    explicit SyncVecEnv(const std::vector<Environment *> &envs);

    /** Borrow a single environment (1-stream shorthand). */
    explicit SyncVecEnv(Environment &env);

    std::size_t numEnvs() const override { return envs_.size(); }
    std::size_t observationSize() const override;
    std::size_t numActions() const override;
    Matrix resetAll() override;
    VecStepResult stepAll(const std::vector<std::size_t> &actions) override;
    Environment &env(std::size_t i) override { return *envs_[i]; }

  private:
    std::vector<std::unique_ptr<Environment>> owned_;
    std::vector<Environment *> envs_;
};

} // namespace autocat

#endif // AUTOCAT_RL_VEC_ENV_HPP
