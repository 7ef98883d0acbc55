#include "rl/vec_env.hpp"

#include <cassert>
#include <cstring>
#include <stdexcept>

namespace autocat {

namespace {

/** Check non-null streams with identical dimensions. */
void
validateStreams(const std::vector<Environment *> &envs)
{
    if (envs.empty())
        throw std::invalid_argument("VecEnv: need at least one stream");
    for (const Environment *e : envs) {
        if (!e)
            throw std::invalid_argument("VecEnv: null environment");
        if (e->observationSize() != envs.front()->observationSize() ||
            e->numActions() != envs.front()->numActions()) {
            throw std::invalid_argument(
                "VecEnv: streams must share observation/action dimensions");
        }
    }
}

/** Step one stream with auto-reset; write outputs at index @p i. */
void
stepStream(Environment &env, std::size_t action, std::size_t i,
           Matrix &obs_out, std::vector<double> &rewards,
           std::vector<std::uint8_t> &dones, std::vector<StepInfo> &infos)
{
    StepResult sr = env.step(action);
    rewards[i] = sr.reward;
    dones[i] = sr.done ? 1 : 0;
    infos[i] = sr.info;
    const std::vector<float> obs = sr.done ? env.reset() : std::move(sr.obs);
    assert(obs.size() == obs_out.cols());
    std::memcpy(obs_out.rowPtr(i), obs.data(), obs.size() * sizeof(float));
}

} // namespace

// ------------------------------------------------------------ SyncVecEnv

SyncVecEnv::SyncVecEnv(std::vector<std::unique_ptr<Environment>> envs)
    : owned_(std::move(envs))
{
    envs_.reserve(owned_.size());
    for (auto &e : owned_)
        envs_.push_back(e.get());
    validateStreams(envs_);
}

SyncVecEnv::SyncVecEnv(const std::vector<Environment *> &envs) : envs_(envs)
{
    validateStreams(envs_);
}

SyncVecEnv::SyncVecEnv(Environment &env) : envs_{&env} {}

std::size_t
SyncVecEnv::observationSize() const
{
    return envs_.front()->observationSize();
}

std::size_t
SyncVecEnv::numActions() const
{
    return envs_.front()->numActions();
}

Matrix
SyncVecEnv::resetAll()
{
    Matrix obs(envs_.size(), observationSize());
    for (std::size_t i = 0; i < envs_.size(); ++i) {
        const std::vector<float> row = envs_[i]->reset();
        std::memcpy(obs.rowPtr(i), row.data(), row.size() * sizeof(float));
    }
    return obs;
}

VecStepResult
SyncVecEnv::stepAll(const std::vector<std::size_t> &actions)
{
    assert(actions.size() == envs_.size());
    VecStepResult r;
    r.obs.resize(envs_.size(), observationSize());
    r.rewards.resize(envs_.size());
    r.dones.resize(envs_.size());
    r.infos.resize(envs_.size());
    for (std::size_t i = 0; i < envs_.size(); ++i)
        stepStream(*envs_[i], actions[i], i, r.obs, r.rewards, r.dones,
                   r.infos);
    return r;
}

} // namespace autocat
