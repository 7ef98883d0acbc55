/**
 * @file
 * Integration tests of the full AutoCAT pipeline: PPO on the guessing
 * game, convergence, sequence extraction, and classification. Uses a
 * deliberately tiny configuration so the whole test stays fast.
 */

#include <gtest/gtest.h>

#include "core/autocat.hpp"

namespace autocat {
namespace {

/** Tiny 2-way FA LRU set, victim 0/E, attacker 0-2, cold start. */
ExplorationConfig
tinyConfig()
{
    ExplorationConfig cfg;
    cfg.env.cache.numSets = 1;
    cfg.env.cache.numWays = 2;
    cfg.env.cache.policy = ReplPolicy::Lru;
    cfg.env.cache.addressSpaceSize = 6;
    cfg.env.attackAddrS = 0;
    cfg.env.attackAddrE = 2;
    cfg.env.victimAddrS = 0;
    cfg.env.victimAddrE = 0;
    cfg.env.victimNoAccessEnable = true;
    cfg.env.windowSize = 10;
    cfg.env.randomInit = false;
    cfg.env.seed = 13;
    cfg.ppo.seed = 17;
    cfg.ppo.stepsPerEpoch = 1500;
    cfg.maxEpochs = 40;
    cfg.evalEpisodes = 60;
    return cfg;
}

TEST(Explore, TinyConfigConvergesAndClassifies)
{
    const ExplorationResult result = explore(tinyConfig());
    ASSERT_TRUE(result.converged)
        << "accuracy " << result.finalAccuracy;
    EXPECT_GE(result.finalAccuracy, 0.97);
    EXPECT_GT(result.envSteps, 0);
    EXPECT_FALSE(result.sequence.empty());
    EXPECT_FALSE(result.finalGuess.empty());
    // The extracted trajectory must include the victim trigger.
    EXPECT_GE(result.sequence.countKind(ActionKind::TriggerVictim), 1u);
    // Cold cache: trigger + probe + guess suffices; the step penalty
    // pushes toward short sequences.
    EXPECT_LE(result.sequence.size(), 8u);
    EXPECT_LE(result.finalEpisodeLength, 9.0);
}

TEST(Explore, ConvergesWithFourStreams)
{
    ExplorationConfig cfg = tinyConfig();
    cfg.numStreams = 4;
    const ExplorationResult result = explore(cfg);
    ASSERT_TRUE(result.converged)
        << "accuracy " << result.finalAccuracy;
    EXPECT_GE(result.finalAccuracy, 0.97);
    EXPECT_FALSE(result.sequence.empty());
}

TEST(Explore, UnknownScenarioIsRejected)
{
    ExplorationConfig cfg = tinyConfig();
    cfg.scenario = "definitely_not_registered";
    EXPECT_THROW(explore(cfg), std::out_of_range);
}

TEST(Explore, HierarchyScenariosRunUnderExplore)
{
    // Every hierarchy scenario must train end to end through the
    // standard pipeline (one epoch suffices — this is a smoke test of
    // construction + stepping + evaluation, not convergence).
    for (const char *scenario :
         {"l1l2_private", "l1l2_shared", "l2_exclusive", "three_level"}) {
        ExplorationConfig cfg = tinyConfig();
        cfg.scenario = scenario;
        cfg.ppo.stepsPerEpoch = 400;
        cfg.maxEpochs = 1;
        cfg.evalEpisodes = 10;
        const ExplorationResult result = explore(cfg);
        EXPECT_GT(result.envSteps, 0) << scenario;
        EXPECT_GE(result.finalAccuracy, 0.0) << scenario;
    }
}

TEST(Explore, VersionStringMentionsLibrary)
{
    EXPECT_NE(std::string(versionString()).find("autocat"),
              std::string::npos);
}

TEST(Explore, DetectorDecoratorIsInvoked)
{
    ExplorationConfig cfg = tinyConfig();
    cfg.maxEpochs = 1;  // just exercise the wiring
    bool decorated = false;
    explore(cfg, nullptr, [&](CacheGuessingGame &env) {
        decorated = true;
        EXPECT_EQ(env.numActions(), 6u);
    });
    EXPECT_TRUE(decorated);
}

TEST(Explore, HardwareTargetMemoryPlugsIn)
{
    ExplorationConfig cfg = tinyConfig();
    cfg.maxEpochs = 1;
    HardwareTargetPreset preset;
    preset.ways = 2;
    preset.policy = ReplPolicy::Lru;
    preset.attackAddrE = 2;
    preset.obsNoise = 0.0;
    preset.interference = 0.0;
    auto target = std::make_unique<SimulatedHardwareTarget>(preset, 3);
    const ExplorationResult r = explore(cfg, std::move(target));
    EXPECT_GT(r.envSteps, 0);
}

TEST(BenchMode, DefaultsWithoutEnvVars)
{
    // The test runner does not set AUTOCAT_FAST / AUTOCAT_FULL.
    EXPECT_EQ(benchMode(), BenchMode::Default);
    EXPECT_EQ(byMode(1, 2, 3), 2);
    EXPECT_STREQ(benchModeName(BenchMode::Fast), "fast");
}

} // namespace
} // namespace autocat
