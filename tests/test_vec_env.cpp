/**
 * @file
 * VecEnv semantics and scenario-registry tests.
 *
 * The load-bearing guarantees: an N-stream VecEnv over seeds
 * {s..s+N-1} reproduces N sequential single-env runs bitwise; a
 * stream auto-resets and hands back the fresh observation on the step its
 * episode ends.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "env/env_registry.hpp"
#include "env/guessing_game.hpp"
#include "rl/vec_env.hpp"

namespace autocat {
namespace {

/**
 * Deterministic scripted environment: observation is
 * [100 * episode + step]; episodes last exactly 3 steps.
 */
class CountingEnv : public Environment
{
  public:
    std::size_t observationSize() const override { return 1; }
    std::size_t numActions() const override { return 2; }

    std::vector<float>
    reset() override
    {
        ++episode_;
        step_ = 0;
        return obs();
    }

    StepResult
    step(std::size_t action) override
    {
        ++step_;
        StepResult r;
        r.reward = static_cast<double>(action);
        r.done = step_ >= 3;
        r.obs = obs();
        return r;
    }

  private:
    std::vector<float>
    obs() const
    {
        return {static_cast<float>(100 * episode_ + step_)};
    }

    int episode_ = 0;
    int step_ = 0;
};

EnvConfig
tinyEnvConfig(std::uint64_t seed = 21)
{
    EnvConfig cfg;
    cfg.cache.numSets = 1;
    cfg.cache.numWays = 2;
    cfg.cache.addressSpaceSize = 6;
    cfg.attackAddrS = 0;
    cfg.attackAddrE = 2;
    cfg.victimAddrS = 0;
    cfg.victimAddrE = 0;
    cfg.victimNoAccessEnable = true;
    cfg.windowSize = 8;
    cfg.seed = seed;
    return cfg;
}

/** Trajectory record for bitwise comparison. */
struct Trace
{
    std::vector<float> obs;
    std::vector<double> rewards;
    std::vector<std::uint8_t> dones;
};

bool
operator==(const Trace &a, const Trace &b)
{
    return a.obs == b.obs && a.rewards == b.rewards && a.dones == b.dones;
}

/** Deterministic per-stream action schedule. */
std::size_t
scheduledAction(std::size_t stream, int t, std::size_t num_actions)
{
    return (stream * 7 + static_cast<std::size_t>(t) * 3) % num_actions;
}

/** Roll @p steps steps of one single env, with auto-reset, seed s. */
Trace
runSequential(std::uint64_t seed, std::size_t stream, int steps)
{
    auto env = makeEnv("guessing_game", tinyEnvConfig(seed));
    Trace trace;
    std::vector<float> obs = env->reset();
    for (int t = 0; t < steps; ++t) {
        StepResult sr =
            env->step(scheduledAction(stream, t, env->numActions()));
        trace.rewards.push_back(sr.reward);
        trace.dones.push_back(sr.done ? 1 : 0);
        const std::vector<float> next = sr.done ? env->reset() : sr.obs;
        trace.obs.insert(trace.obs.end(), next.begin(), next.end());
    }
    return trace;
}

/** Roll @p steps batched steps of one VecEnv, splitting per stream. */
std::vector<Trace>
runVectorized(VecEnv &vec, int steps)
{
    const std::size_t n = vec.numEnvs();
    const std::size_t dim = vec.observationSize();
    std::vector<Trace> traces(n);
    vec.resetAll();
    std::vector<std::size_t> actions(n);
    for (int t = 0; t < steps; ++t) {
        for (std::size_t s = 0; s < n; ++s)
            actions[s] = scheduledAction(s, t, vec.numActions());
        const VecStepResult vr = vec.stepAll(actions);
        for (std::size_t s = 0; s < n; ++s) {
            traces[s].rewards.push_back(vr.rewards[s]);
            traces[s].dones.push_back(vr.dones[s]);
            traces[s].obs.insert(traces[s].obs.end(), vr.obs.rowPtr(s),
                                 vr.obs.rowPtr(s) + dim);
        }
    }
    return traces;
}

TEST(VecEnv, SyncMatchesSequentialRunsBitwise)
{
    constexpr std::uint64_t kBaseSeed = 21;
    constexpr std::size_t kStreams = 4;
    constexpr int kSteps = 200;

    auto vec =
        makeVecEnv("guessing_game", tinyEnvConfig(kBaseSeed), kStreams);
    const std::vector<Trace> vec_traces = runVectorized(*vec, kSteps);

    for (std::size_t s = 0; s < kStreams; ++s) {
        const Trace seq = runSequential(kBaseSeed + s, s, kSteps);
        EXPECT_TRUE(vec_traces[s] == seq)
            << "stream " << s << " diverged from the sequential run";
    }
}

TEST(VecEnv, AutoResetReturnsFreshObservation)
{
    std::vector<std::unique_ptr<Environment>> envs;
    envs.push_back(std::make_unique<CountingEnv>());
    envs.push_back(std::make_unique<CountingEnv>());
    SyncVecEnv vec(std::move(envs));

    const Matrix first = vec.resetAll();
    EXPECT_FLOAT_EQ(first(0, 0), 100.0f);  // episode 1, step 0

    // Episodes last 3 steps: the 3rd stepAll ends episode 1 and must
    // hand back episode 2's first observation in the same batch.
    VecStepResult vr = vec.stepAll({1, 0});
    EXPECT_EQ(vr.dones[0], 0);
    EXPECT_FLOAT_EQ(vr.obs(0, 0), 101.0f);
    vr = vec.stepAll({1, 0});
    vr = vec.stepAll({1, 0});
    EXPECT_EQ(vr.dones[0], 1);
    EXPECT_EQ(vr.dones[1], 1);
    EXPECT_FLOAT_EQ(vr.obs(0, 0), 200.0f);  // episode 2, step 0
    EXPECT_FLOAT_EQ(vr.obs(1, 0), 200.0f);
    EXPECT_DOUBLE_EQ(vr.rewards[0], 1.0);
    EXPECT_DOUBLE_EQ(vr.rewards[1], 0.0);

    // The stream keeps running in the new episode without reset().
    vr = vec.stepAll({0, 0});
    EXPECT_EQ(vr.dones[0], 0);
    EXPECT_FLOAT_EQ(vr.obs(0, 0), 201.0f);
}

TEST(VecEnv, RejectsMismatchedStreams)
{
    EnvConfig small = tinyEnvConfig();
    EnvConfig large = tinyEnvConfig();
    large.attackAddrE = 4;
    large.cache.addressSpaceSize = 8;

    std::vector<std::unique_ptr<Environment>> envs;
    envs.push_back(makeEnv("guessing_game", small));
    envs.push_back(makeEnv("guessing_game", large));
    EXPECT_THROW(SyncVecEnv{std::move(envs)}, std::invalid_argument);
}

TEST(Registry, BuiltinGuessingGameIsRegistered)
{
    EXPECT_TRUE(hasScenario("guessing_game"));
    const auto names = scenarioNames();
    EXPECT_NE(std::find(names.begin(), names.end(), "guessing_game"),
              names.end());

    auto env = makeEnv("guessing_game", tinyEnvConfig());
    EXPECT_NE(dynamic_cast<CacheGuessingGame *>(env.get()), nullptr);
}

TEST(Registry, UnknownScenarioThrows)
{
    EXPECT_THROW(makeEnv("no_such_scenario", tinyEnvConfig()),
                 std::out_of_range);
}

TEST(Registry, HierarchyScenariosAreRegistered)
{
    for (const char *name :
         {"l1l2_private", "l1l2_shared", "l2_exclusive", "three_level"}) {
        EXPECT_TRUE(hasScenario(name)) << name;
    }
}

TEST(Registry, HierarchyScenariosBuildHierarchyBackedGames)
{
    const struct
    {
        const char *name;
        unsigned depth;
        InclusionPolicy outer;
        bool sharedL1;
    } expected[] = {
        {"l1l2_private", 2, InclusionPolicy::Inclusive, false},
        {"l1l2_shared", 2, InclusionPolicy::Inclusive, true},
        {"l2_exclusive", 2, InclusionPolicy::Exclusive, false},
        {"three_level", 3, InclusionPolicy::Inclusive, false},
    };

    for (const auto &e : expected) {
        auto env = makeEnv(e.name, tinyEnvConfig());
        auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
        ASSERT_NE(game, nullptr) << e.name;
        auto *hier = dynamic_cast<CacheHierarchy *>(&game->memory());
        ASSERT_NE(hier, nullptr) << e.name;
        EXPECT_EQ(hier->depth(), e.depth) << e.name;
        EXPECT_EQ(hier->config().levels.back().inclusion, e.outer)
            << e.name;
        EXPECT_EQ(hier->config().levels.front().shared, e.sharedL1)
            << e.name;
        // The outermost (attacked) level is the EnvConfig cache, so
        // window sizing keys off the same block count.
        EXPECT_EQ(hier->numBlocks(), tinyEnvConfig().cache.numBlocks())
            << e.name;
    }
}

TEST(Registry, HierarchyScenarioRespectsExplicitLevels)
{
    EnvConfig cfg = tinyEnvConfig();
    CacheConfig lvl;
    lvl.numSets = 2;
    lvl.numWays = 2;
    lvl.addressSpaceSize = 16;
    cfg.hierarchy = HierarchyConfig::twoLevel(lvl, lvl,
                                              InclusionPolicy::Nine);
    auto env = makeEnv("l1l2_private", cfg);
    auto *game = dynamic_cast<CacheGuessingGame *>(env.get());
    ASSERT_NE(game, nullptr);
    auto *hier = dynamic_cast<CacheHierarchy *>(&game->memory());
    ASSERT_NE(hier, nullptr);
    EXPECT_EQ(hier->config().levels.back().inclusion,
              InclusionPolicy::Nine);
    EXPECT_EQ(hier->config().levels.back().cache.numSets, 2u);
}

TEST(Registry, HierarchyScenariosWorkThroughMakeVecEnv)
{
    auto vec = makeVecEnv("l1l2_private", tinyEnvConfig(), 2);
    const Matrix obs = vec->resetAll();
    EXPECT_EQ(obs.rows(), 2u);
    const VecStepResult r = vec->stepAll({0, 0});
    EXPECT_EQ(r.obs.rows(), 2u);
}

TEST(Registry, CustomScenarioPlugsIn)
{
    struct SeedProbe : CountingEnv
    {
        explicit SeedProbe(std::uint64_t seed) : seed(seed) {}
        std::uint64_t seed;
    };

    const bool fresh = registerScenario(
        "test_counting",
        [](const ScenarioContext &ctx, std::unique_ptr<MemorySystem>) {
            return std::make_unique<SeedProbe>(ctx.env.seed);
        });
    EXPECT_TRUE(fresh);
    EXPECT_TRUE(hasScenario("test_counting"));

    // makeVecEnv seeds stream i with config.seed + i.
    EnvConfig cfg = tinyEnvConfig(/*seed=*/40);
    auto vec = makeVecEnv("test_counting", cfg, 3);
    for (std::size_t i = 0; i < 3; ++i) {
        auto *probe = dynamic_cast<SeedProbe *>(&vec->env(i));
        ASSERT_NE(probe, nullptr);
        EXPECT_EQ(probe->seed, 40u + i);
    }
}

} // namespace
} // namespace autocat
