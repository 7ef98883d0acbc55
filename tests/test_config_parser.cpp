/**
 * @file
 * Tests for the key = value experiment-config parser.
 */

#include <gtest/gtest.h>

#include "core/campaign_config.hpp"
#include "core/config_parser.hpp"
#include "util/rng.hpp"

namespace autocat {
namespace {

TEST(ConfigParser, ParsesFullTableIIKnobSet)
{
    const ExplorationConfig cfg = parseExplorationConfig(std::string(R"(
        # cache
        num_sets = 4
        num_ways = 2
        rep_policy = rrip
        prefetcher = nextline
        random_set_mapping = true
        address_space = 32
        # attacker / victim
        attack_addr_s = 4
        attack_addr_e = 11
        victim_addr_s = 0
        victim_addr_e = 3
        flush_enable = true
        victim_no_access_enable = false
        detection_enable = true
        pl_cache_lock_victim = true
        # episode / rewards
        window_size = 24
        multi_secret = true
        multi_secret_episode_steps = 80
        reveal_on_guess = true
        random_init = false
        correct_guess_reward = 2.0
        wrong_guess_reward = -3.0
        step_reward = -0.02
        length_violation_reward = -5
        detection_reward = -4
        seed = 99
        # rl
        ppo_seed = 123
        steps_per_epoch = 1234
        learning_rate = 0.001
        gamma = 0.9
        hidden = 64
        max_epochs = 55
        target_accuracy = 0.9
        eval_episodes = 77
        verbose = true
    )"));

    EXPECT_EQ(cfg.env.cache.numSets, 4u);
    EXPECT_EQ(cfg.env.cache.numWays, 2u);
    EXPECT_EQ(cfg.env.cache.policy, ReplPolicy::Rrip);
    EXPECT_EQ(cfg.env.cache.prefetcher, PrefetcherKind::NextLine);
    EXPECT_TRUE(cfg.env.cache.randomSetMapping);
    EXPECT_EQ(cfg.env.cache.addressSpaceSize, 32u);
    EXPECT_EQ(cfg.env.attackAddrS, 4u);
    EXPECT_EQ(cfg.env.attackAddrE, 11u);
    EXPECT_EQ(cfg.env.victimAddrE, 3u);
    EXPECT_TRUE(cfg.env.flushEnable);
    EXPECT_FALSE(cfg.env.victimNoAccessEnable);
    EXPECT_TRUE(cfg.env.detectionEnable);
    EXPECT_TRUE(cfg.env.plCacheLockVictim);
    EXPECT_EQ(cfg.env.windowSize, 24u);
    EXPECT_TRUE(cfg.env.multiSecret);
    EXPECT_EQ(cfg.env.multiSecretEpisodeSteps, 80u);
    EXPECT_TRUE(cfg.env.revealOnGuess);
    EXPECT_FALSE(cfg.env.randomInit);
    EXPECT_DOUBLE_EQ(cfg.env.correctGuessReward, 2.0);
    EXPECT_DOUBLE_EQ(cfg.env.wrongGuessReward, -3.0);
    EXPECT_DOUBLE_EQ(cfg.env.stepReward, -0.02);
    EXPECT_DOUBLE_EQ(cfg.env.lengthViolationReward, -5.0);
    EXPECT_DOUBLE_EQ(cfg.env.detectionReward, -4.0);
    EXPECT_EQ(cfg.env.seed, 99u);
    EXPECT_EQ(cfg.ppo.seed, 123u);
    EXPECT_EQ(cfg.ppo.stepsPerEpoch, 1234);
    EXPECT_DOUBLE_EQ(cfg.ppo.lr, 0.001);
    EXPECT_DOUBLE_EQ(cfg.ppo.gamma, 0.9);
    EXPECT_EQ(cfg.ppo.hidden, 64u);
    EXPECT_EQ(cfg.maxEpochs, 55);
    EXPECT_DOUBLE_EQ(cfg.targetAccuracy, 0.9);
    EXPECT_EQ(cfg.evalEpisodes, 77);
    EXPECT_TRUE(cfg.verbose);
}

TEST(ConfigParser, DefaultsWhenEmpty)
{
    const ExplorationConfig cfg = parseExplorationConfig(std::string(""));
    const ExplorationConfig fresh;
    EXPECT_EQ(cfg.env.cache.numWays, fresh.env.cache.numWays);
    EXPECT_EQ(cfg.maxEpochs, fresh.maxEpochs);
}

TEST(ConfigParser, RetiredExecutionModeKeysAreUnknown)
{
    // threaded_envs, batch_env and double_buffered selected collection
    // modes that no longer exist; an old config naming them must fail
    // instead of silently training on the one remaining path.
    for (const char *key : {"threaded_envs", "batch_env", "double_buffered"}) {
        try {
            parseExplorationConfig(std::string(key) + " = false");
            ADD_FAILURE() << key << " parsed";
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find("config: unknown option '" +
                                                 std::string(key) + "'"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(ConfigParser, NumStreamsBelowOneIsRejected)
{
    EXPECT_THROW(parseExplorationConfig(std::string("num_streams = 0")),
                 std::invalid_argument);
    EXPECT_THROW(parseExplorationConfig(std::string("num_streams = -1")),
                 std::invalid_argument);
    EXPECT_EQ(parseExplorationConfig(std::string("num_streams = 1"))
                  .numStreams,
              1);
}

TEST(ConfigParser, UnknownKeyFailsLoudly)
{
    EXPECT_THROW(parseExplorationConfig(std::string("num_waysss = 4")),
                 std::invalid_argument);
}

TEST(ConfigParser, MissingEqualsFails)
{
    EXPECT_THROW(parseExplorationConfig(std::string("num_ways 4")),
                 std::invalid_argument);
}

TEST(ConfigParser, BadBooleanFails)
{
    EXPECT_THROW(
        parseExplorationConfig(std::string("flush_enable = maybe")),
        std::invalid_argument);
}

TEST(ConfigParser, NumericValuesAreStrict)
{
    // Trailing garbage, negatives, and out-of-range values must fail
    // loudly, not silently truncate or wrap.
    EXPECT_THROW(parseExplorationConfig(std::string("num_ways = 8abc")),
                 std::invalid_argument);
    EXPECT_THROW(parseExplorationConfig(std::string("num_ways = -1")),
                 std::invalid_argument);
    EXPECT_THROW(
        parseExplorationConfig(std::string("hierarchy.num_cores = 0z")),
        std::invalid_argument);
    EXPECT_THROW(
        parseExplorationConfig(
            std::string("seed = 123456789012345678901234567890")),
        std::invalid_argument);
    EXPECT_THROW(
        parseExplorationConfig(std::string("learning_rate = 0.x")),
        std::invalid_argument);
    // Narrowed fields reject values that would wrap int/unsigned.
    EXPECT_THROW(
        parseExplorationConfig(
            std::string("steps_per_epoch = 3000000000")),
        std::invalid_argument);
    EXPECT_THROW(
        parseExplorationConfig(std::string("num_ways = 4294967298")),
        std::invalid_argument);
    EXPECT_THROW(parseExplorationConfig(std::string("step_reward =")),
                 std::invalid_argument);
    // Non-finite doubles parse via stod but are never sane knobs.
    EXPECT_THROW(parseExplorationConfig(std::string("gamma = nan")),
                 std::invalid_argument);
    EXPECT_THROW(
        parseExplorationConfig(std::string("learning_rate = inf")),
        std::invalid_argument);
    // Scientific notation and signed doubles stay accepted.
    const ExplorationConfig ok = parseExplorationConfig(
        std::string("learning_rate = 1e-3\nstep_reward = -0.02"));
    EXPECT_DOUBLE_EQ(ok.ppo.lr, 1e-3);
    EXPECT_DOUBLE_EQ(ok.env.stepReward, -0.02);
}

TEST(ConfigParser, CommentsAndBlankLinesIgnored)
{
    const ExplorationConfig cfg = parseExplorationConfig(std::string(
        "\n   # a comment\nnum_ways = 8  # trailing comment\n\n"));
    EXPECT_EQ(cfg.env.cache.numWays, 8u);
}

TEST(ConfigParser, AddressSpaceAutoWidens)
{
    const ExplorationConfig cfg = parseExplorationConfig(
        std::string("attack_addr_e = 100\naddress_space = 8"));
    EXPECT_GE(cfg.env.cache.addressSpaceSize, 102u);
}

TEST(ConfigParser, RenderRoundTrips)
{
    ExplorationConfig original;
    original.env.cache.numWays = 8;
    original.env.cache.policy = ReplPolicy::TreePlru;
    original.env.flushEnable = true;
    original.env.stepReward = -0.005;
    original.maxEpochs = 42;

    const std::string text = renderExplorationConfig(original);
    const ExplorationConfig parsed = parseExplorationConfig(text);
    EXPECT_EQ(parsed.env.cache.numWays, 8u);
    EXPECT_EQ(parsed.env.cache.policy, ReplPolicy::TreePlru);
    EXPECT_TRUE(parsed.env.flushEnable);
    EXPECT_DOUBLE_EQ(parsed.env.stepReward, -0.005);
    EXPECT_EQ(parsed.maxEpochs, 42);
}

TEST(ConfigParser, LoadMissingFileThrows)
{
    EXPECT_THROW(loadExplorationConfig("/nonexistent/path.cfg"),
                 std::runtime_error);
}

TEST(ConfigParser, ParsesHierarchyLevels)
{
    const ExplorationConfig cfg = parseExplorationConfig(std::string(R"(
        scenario = guessing_game
        hierarchy.num_cores = 2
        hierarchy.levels[0].num_sets = 4
        hierarchy.levels[0].num_ways = 1
        hierarchy.levels[0].rep_policy = lru
        hierarchy.levels[0].shared = false
        hierarchy.levels[1].num_sets = 4
        hierarchy.levels[1].num_ways = 2
        hierarchy.levels[1].rep_policy = rrip
        hierarchy.levels[1].inclusion = exclusive
        hierarchy.levels[1].address_space = 48
        hierarchy.levels[1].shared = true
    )"));

    const HierarchyConfig &h = cfg.env.hierarchy;
    ASSERT_EQ(h.depth(), 2u);
    EXPECT_EQ(h.numCores, 2u);
    EXPECT_EQ(h.levels[0].cache.numSets, 4u);
    EXPECT_EQ(h.levels[0].cache.numWays, 1u);
    EXPECT_FALSE(h.levels[0].shared);
    EXPECT_EQ(h.levels[1].cache.numWays, 2u);
    EXPECT_EQ(h.levels[1].cache.policy, ReplPolicy::Rrip);
    EXPECT_EQ(h.levels[1].inclusion, InclusionPolicy::Exclusive);
    EXPECT_EQ(h.levels[1].cache.addressSpaceSize, 48u);
    EXPECT_TRUE(h.levels[1].shared);
}

TEST(ConfigParser, HierarchyLevelsGrowOnDemandInAnyOrder)
{
    const ExplorationConfig cfg = parseExplorationConfig(std::string(
        "hierarchy.levels[2].num_ways = 8\n"
        "hierarchy.levels[0].num_ways = 1\n"));
    ASSERT_EQ(cfg.env.hierarchy.depth(), 3u);
    EXPECT_EQ(cfg.env.hierarchy.levels[0].cache.numWays, 1u);
    EXPECT_EQ(cfg.env.hierarchy.levels[2].cache.numWays, 8u);
}

TEST(ConfigParser, HierarchyAddressSpaceAutoWidens)
{
    const ExplorationConfig cfg = parseExplorationConfig(std::string(
        "attack_addr_e = 100\nhierarchy.levels[0].address_space = 8\n"));
    EXPECT_GE(cfg.env.hierarchy.levels[0].cache.addressSpaceSize, 102u);
}

TEST(ConfigParser, BadHierarchyKeysFailLoudly)
{
    EXPECT_THROW(parseExplorationConfig(
                     std::string("hierarchy.levels[0].bogus = 1")),
                 std::invalid_argument);
    EXPECT_THROW(parseExplorationConfig(
                     std::string("hierarchy.levels[99].num_ways = 1")),
                 std::invalid_argument);
    // Trailing garbage in the level index must not parse as the prefix.
    EXPECT_THROW(parseExplorationConfig(
                     std::string("hierarchy.levels[0z].num_ways = 1")),
                 std::invalid_argument);
    EXPECT_THROW(parseExplorationConfig(
                     std::string("hierarchy.levels[].num_ways = 1")),
                 std::invalid_argument);
    EXPECT_THROW(parseExplorationConfig(
                     std::string("hierarchy.bogus = 1")),
                 std::invalid_argument);
    EXPECT_THROW(
        parseExplorationConfig(std::string(
            "hierarchy.levels[0].inclusion = sometimes")),
        std::invalid_argument);
}

TEST(ConfigParser, RenderRoundTripsHierarchy)
{
    ExplorationConfig original;
    original.env.hierarchy.numCores = 2;
    CacheConfig l1;
    l1.numSets = 4;
    l1.numWays = 1;
    l1.randomSetMapping = true;
    l1.seed = 77;
    CacheConfig l2;
    l2.numSets = 4;
    l2.numWays = 2;
    l2.policy = ReplPolicy::TreePlru;
    l2.prefetcher = PrefetcherKind::Stream;
    original.env.hierarchy =
        HierarchyConfig::twoLevel(l1, l2, InclusionPolicy::Exclusive);

    const std::string text = renderExplorationConfig(original);
    const ExplorationConfig parsed = parseExplorationConfig(text);
    ASSERT_EQ(parsed.env.hierarchy.depth(), 2u);
    EXPECT_FALSE(parsed.env.hierarchy.levels[0].shared);
    EXPECT_TRUE(parsed.env.hierarchy.levels[0].cache.randomSetMapping);
    EXPECT_EQ(parsed.env.hierarchy.levels[0].cache.seed, 77u);
    EXPECT_EQ(parsed.env.hierarchy.levels[1].cache.policy,
              ReplPolicy::TreePlru);
    EXPECT_EQ(parsed.env.hierarchy.levels[1].cache.prefetcher,
              PrefetcherKind::Stream);
    EXPECT_EQ(parsed.env.hierarchy.levels[1].inclusion,
              InclusionPolicy::Exclusive);
    EXPECT_TRUE(parsed.env.hierarchy.levels[1].shared);
}

TEST(ConfigParser, ParsesTlbAndChannelKeys)
{
    const ExplorationConfig cfg = parseExplorationConfig(std::string(R"(
        scenario = tlb_evict
        tlb.num_sets = 4
        tlb.num_ways = 3
        tlb.rep_policy = plru
        tlb.walk_levels = 3
        tlb.level_bits = 4
        tlb.pwc_sets = 2
        tlb.pwc_ways = 8
        tlb.address_space = 128
        tlb.seed = 9
        channel.prefetch_burst_len = 5
        channel.prefetch_burst_base = 2
    )"));

    const TlbConfig &t = cfg.env.channel.tlb;
    EXPECT_EQ(t.numSets, 4u);
    EXPECT_EQ(t.numWays, 3u);
    EXPECT_EQ(t.policy, ReplPolicy::TreePlru);
    EXPECT_EQ(t.walkLevels, 3u);
    EXPECT_EQ(t.levelBits, 4u);
    EXPECT_EQ(t.pwcSets, 2u);
    EXPECT_EQ(t.pwcWays, 8u);
    EXPECT_EQ(t.addressSpaceSize, 128u);
    EXPECT_EQ(t.seed, 9u);
    EXPECT_EQ(cfg.env.channel.prefetchBurstLen, 5u);
    EXPECT_EQ(cfg.env.channel.prefetchBurstBase, 2u);
}

TEST(ConfigParser, TlbAddressSpaceAutoWidens)
{
    // The same guarantee the cache address space gets: the configured
    // attack/victim ranges always fit the TLB's page space.
    const ExplorationConfig cfg = parseExplorationConfig(
        std::string("attack_addr_e = 100\ntlb.address_space = 8"));
    EXPECT_GE(cfg.env.channel.tlb.addressSpaceSize, 102u);
}

TEST(ConfigParser, BadTlbAndChannelKeysFailLoudly)
{
    EXPECT_THROW(parseExplorationConfig(std::string("tlb.bogus = 1")),
                 std::invalid_argument);
    EXPECT_THROW(
        parseExplorationConfig(std::string("channel.bogus = 1")),
        std::invalid_argument);
    EXPECT_THROW(
        parseExplorationConfig(std::string("tlb.num_sets = -1")),
        std::invalid_argument);
    EXPECT_THROW(
        parseExplorationConfig(std::string("tlb.rep_policy = fifo")),
        std::invalid_argument);
    EXPECT_THROW(
        parseExplorationConfig(
            std::string("channel.prefetch_burst_len = 3x")),
        std::invalid_argument);
    // Errors carry the offending line number.
    try {
        parseExplorationConfig(std::string("\n\ntlb.bogus = 1\n"));
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos);
    }
}

TEST(ConfigParser, RenderRoundTripsTlbAndChannel)
{
    ExplorationConfig original;
    original.env.channel.tlb.numSets = 8;
    original.env.channel.tlb.numWays = 4;
    original.env.channel.tlb.policy = ReplPolicy::Rrip;
    original.env.channel.tlb.walkLevels = 4;
    original.env.channel.tlb.levelBits = 9;
    original.env.channel.tlb.pwcSets = 2;
    original.env.channel.tlb.pwcWays = 4;
    original.env.channel.tlb.addressSpaceSize = 256;
    original.env.channel.tlb.seed = 31;
    original.env.channel.prefetchBurstLen = 6;
    original.env.channel.prefetchBurstBase = 3;

    const std::string text = renderExplorationConfig(original);
    const ExplorationConfig parsed = parseExplorationConfig(text);
    EXPECT_EQ(parsed.env.channel.tlb.numSets, 8u);
    EXPECT_EQ(parsed.env.channel.tlb.numWays, 4u);
    EXPECT_EQ(parsed.env.channel.tlb.policy, ReplPolicy::Rrip);
    EXPECT_EQ(parsed.env.channel.tlb.walkLevels, 4u);
    EXPECT_EQ(parsed.env.channel.tlb.levelBits, 9u);
    EXPECT_EQ(parsed.env.channel.tlb.pwcSets, 2u);
    EXPECT_EQ(parsed.env.channel.tlb.pwcWays, 4u);
    EXPECT_EQ(parsed.env.channel.tlb.addressSpaceSize, 256u);
    EXPECT_EQ(parsed.env.channel.tlb.seed, 31u);
    EXPECT_EQ(parsed.env.channel.prefetchBurstLen, 6u);
    EXPECT_EQ(parsed.env.channel.prefetchBurstBase, 3u);
}

TEST(ConfigParser, RenderRejectsUnrepresentableScenarioNames)
{
    ExplorationConfig cfg;
    cfg.scenario = "foo #1";
    EXPECT_THROW(renderExplorationConfig(cfg), std::invalid_argument);
    cfg.scenario = "foo ";
    EXPECT_THROW(renderExplorationConfig(cfg), std::invalid_argument);
}

TEST(ConfigParser, ExtensionHookReceivesUnknownKeys)
{
    std::vector<std::pair<std::string, std::string>> seen;
    const ExplorationConfig cfg = parseExplorationConfig(
        std::string("num_ways = 8\ncustom.alpha = 3\ncustom.beta = x\n"),
        [&](const std::string &key, const std::string &value) {
            if (key.compare(0, 7, "custom.") != 0)
                return false;
            seen.emplace_back(key, value);
            return true;
        });
    EXPECT_EQ(cfg.env.cache.numWays, 8u);
    ASSERT_EQ(seen.size(), 2u);
    EXPECT_EQ(seen[0].first, "custom.alpha");
    EXPECT_EQ(seen[1].second, "x");

    // A hook that declines the key keeps the fail-loudly contract, and
    // a hook that throws gets the line number appended.
    EXPECT_THROW(
        parseExplorationConfig(
            std::string("other.key = 1"),
            [](const std::string &, const std::string &) { return false; }),
        std::invalid_argument);
    try {
        parseExplorationConfig(
            std::string("\ncustom.bad = 1"),
            [](const std::string &, const std::string &) -> bool {
                throw std::invalid_argument("config: bad custom key");
            });
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    }
}

/** Randomized config covering every rendered knob family. */
ExplorationConfig
randomConfig(Rng &rng)
{
    const ReplPolicy policies[] = {ReplPolicy::Lru, ReplPolicy::TreePlru,
                                   ReplPolicy::Rrip, ReplPolicy::Random};
    const PrefetcherKind prefetchers[] = {PrefetcherKind::None,
                                          PrefetcherKind::NextLine,
                                          PrefetcherKind::Stream};
    const InclusionPolicy inclusions[] = {InclusionPolicy::Inclusive,
                                          InclusionPolicy::Exclusive,
                                          InclusionPolicy::Nine};

    ExplorationConfig cfg;
    cfg.env.cache.numSets = 1u << rng.uniformInt(4);
    cfg.env.cache.numWays = 1u << rng.uniformInt(4);
    cfg.env.cache.policy = policies[rng.uniformInt(4)];
    cfg.env.cache.prefetcher = prefetchers[rng.uniformInt(3)];
    cfg.env.cache.randomSetMapping = rng.bernoulli(0.5);
    cfg.env.cache.addressSpaceSize = 16 + rng.uniformInt(64);
    cfg.env.attackAddrS = rng.uniformInt(4);
    cfg.env.attackAddrE = cfg.env.attackAddrS + rng.uniformInt(8);
    cfg.env.victimAddrE = rng.uniformInt(4);
    cfg.env.flushEnable = rng.bernoulli(0.5);
    cfg.env.victimNoAccessEnable = rng.bernoulli(0.5);
    cfg.env.detectionEnable = rng.bernoulli(0.5);
    cfg.env.windowSize = rng.uniformInt(64);
    cfg.env.episodeLengthLimit = rng.uniformInt(64);
    cfg.env.multiSecret = rng.bernoulli(0.5);
    cfg.env.multiSecretEpisodeSteps = 1 + rng.uniformInt(200);
    cfg.env.randomInit = rng.bernoulli(0.5);
    cfg.env.initAccesses = rng.uniformInt(16);
    cfg.env.stepReward = -0.001 * static_cast<double>(rng.uniformInt(50));
    cfg.env.seed = rng.uniformInt(1000);
    // Channel knobs (tlb.* / channel.*) are rendered unconditionally,
    // so every fuzz round exercises their round trip. The TLB address
    // space floor mirrors the cache's: large enough that the parse
    // epilogue's auto-widen never fires (widening would break the
    // fixed point by design, tested separately).
    cfg.env.channel.tlb.numSets = 1u << rng.uniformInt(3);
    cfg.env.channel.tlb.numWays = 1u << rng.uniformInt(3);
    cfg.env.channel.tlb.policy = policies[rng.uniformInt(4)];
    cfg.env.channel.tlb.walkLevels = 1 + rng.uniformInt(4);
    cfg.env.channel.tlb.levelBits = 1 + rng.uniformInt(8);
    cfg.env.channel.tlb.pwcSets = 1 + rng.uniformInt(4);
    cfg.env.channel.tlb.pwcWays = 1 + rng.uniformInt(4);
    cfg.env.channel.tlb.addressSpaceSize = 16 + rng.uniformInt(64);
    cfg.env.channel.tlb.seed = rng.uniformInt(100);
    cfg.env.channel.prefetchBurstLen = 1 + rng.uniformInt(8);
    cfg.env.channel.prefetchBurstBase = rng.uniformInt(8);
    cfg.ppo.seed = rng.uniformInt(1000);
    cfg.ppo.stepsPerEpoch = 100 + static_cast<int>(rng.uniformInt(5000));
    cfg.ppo.hidden = 16u << rng.uniformInt(4);
    cfg.ppo.entropyCoef = 0.001 * static_cast<double>(rng.uniformInt(100));
    cfg.maxEpochs = 1 + static_cast<int>(rng.uniformInt(300));
    cfg.evalEpisodes = 1 + static_cast<int>(rng.uniformInt(200));
    cfg.verbose = rng.bernoulli(0.5);
    cfg.numStreams = 1 + static_cast<int>(rng.uniformInt(8));

    if (rng.bernoulli(0.6)) {
        const unsigned depth = 1 + static_cast<unsigned>(rng.uniformInt(3));
        cfg.env.hierarchy.numCores = 2;
        for (unsigned k = 0; k < depth; ++k) {
            HierarchyLevelConfig lvl;
            lvl.cache.numSets = 1u << rng.uniformInt(3);
            lvl.cache.numWays = 1u << rng.uniformInt(3);
            lvl.cache.policy = policies[rng.uniformInt(4)];
            lvl.cache.addressSpaceSize = 16 + rng.uniformInt(64);
            lvl.cache.seed = rng.uniformInt(100);
            lvl.inclusion = inclusions[rng.uniformInt(3)];
            lvl.shared = rng.bernoulli(0.5);
            cfg.env.hierarchy.levels.push_back(lvl);
        }
    }
    return cfg;
}

TEST(ConfigParserFuzz, RenderParseRenderIsAFixedPointOnRandomConfigs)
{
    Rng rng(0xc0ffee);
    for (int round = 0; round < 50; ++round) {
        const ExplorationConfig cfg = randomConfig(rng);
        const std::string once = renderExplorationConfig(cfg);
        ExplorationConfig reparsed;
        ASSERT_NO_THROW(reparsed = parseExplorationConfig(once))
            << "round " << round << "\n" << once;
        const std::string twice = renderExplorationConfig(reparsed);
        ASSERT_EQ(once, twice) << "round " << round;
    }
}

/** Random campaign layered on a random base: every campaign.* /
 *  phase[N].* knob family is exercised. */
CampaignConfig
randomCampaignConfig(Rng &rng)
{
    CampaignConfig cfg;
    cfg.base = randomConfig(rng);
    if (rng.bernoulli(0.5))
        cfg.checkpointPath =
            "ckpt_" + std::to_string(rng.uniformInt(100)) + ".bin";
    cfg.checkpointEvery = static_cast<int>(rng.uniformInt(10));
    cfg.resume = rng.bernoulli(0.5);

    const char *kinds[] = {"miss", "cchunter", "cyclone"};
    const std::size_t num_phases = 1 + rng.uniformInt(3);
    for (std::size_t k = 0; k < num_phases; ++k) {
        CurriculumPhase phase;
        if (rng.bernoulli(0.5))
            phase.name = "p" + std::to_string(k);
        if (rng.bernoulli(0.3))
            phase.scenario = "guessing_game";
        phase.maxEpochs = 1 + static_cast<int>(rng.uniformInt(100));
        if (rng.bernoulli(0.5))
            phase.targetAccuracy =
                0.01 * static_cast<double>(rng.uniformInt(100));
        if (rng.bernoulli(0.5))
            phase.maxDetectionRate =
                0.01 * static_cast<double>(rng.uniformInt(100));
        if (rng.bernoulli(0.5)) {
            DetectorSpec d;
            d.kind = kinds[rng.uniformInt(3)];
            d.mode = rng.bernoulli(0.5) ? DetectorMode::Terminate
                                        : DetectorMode::Penalize;
            d.penalty = -0.1 * static_cast<double>(rng.uniformInt(50));
            d.missThreshold = 1 + static_cast<unsigned>(rng.uniformInt(4));
            d.cycloneInterval =
                8 + static_cast<unsigned>(rng.uniformInt(32));
            phase.detectors.push_back(d);
        }
        if (rng.bernoulli(0.4))
            phase.detectionEnable = rng.bernoulli(0.5);
        if (rng.bernoulli(0.4))
            phase.multiSecret = rng.bernoulli(0.5);
        if (rng.bernoulli(0.4))
            phase.multiSecretEpisodeSteps =
                1 + static_cast<unsigned>(rng.uniformInt(200));
        if (rng.bernoulli(0.4))
            phase.rewards.stepReward =
                -0.001 * static_cast<double>(rng.uniformInt(50));
        if (rng.bernoulli(0.4))
            phase.rewards.correctGuessReward =
                0.5 * static_cast<double>(rng.uniformInt(6));
        if (rng.bernoulli(0.4))
            phase.rewards.detectionReward =
                -0.5 * static_cast<double>(rng.uniformInt(6));
        if (rng.bernoulli(0.3))
            phase.rewards.wrongGuessReward =
                -0.5 * static_cast<double>(rng.uniformInt(6));
        if (rng.bernoulli(0.3))
            phase.rewards.lengthViolationReward =
                -0.5 * static_cast<double>(rng.uniformInt(6));
        if (rng.bernoulli(0.3))
            phase.rewards.noGuessReward =
                -0.5 * static_cast<double>(rng.uniformInt(6));
        cfg.phases.push_back(std::move(phase));
    }
    return cfg;
}

TEST(ConfigParserFuzz, CampaignRenderParseRenderIsAFixedPoint)
{
    Rng rng(0xbada11ce);
    for (int round = 0; round < 50; ++round) {
        const CampaignConfig cfg = randomCampaignConfig(rng);
        const std::string once = renderCampaignConfig(cfg);
        CampaignConfig reparsed;
        ASSERT_NO_THROW(reparsed = parseCampaignConfig(once))
            << "round " << round << "\n" << once;
        const std::string twice = renderCampaignConfig(reparsed);
        ASSERT_EQ(once, twice) << "round " << round;
    }
}

TEST(ConfigParserFuzz, CorruptedCampaignKeysNeverParseSilently)
{
    Rng rng(0xdecade);
    const std::string rendered =
        renderCampaignConfig(randomCampaignConfig(rng));
    std::vector<std::string> lines;
    std::istringstream iss(rendered);
    std::string line;
    while (std::getline(iss, line))
        lines.push_back(line);

    for (int round = 0; round < 50; ++round) {
        std::vector<std::string> mutated = lines;
        std::string &victim = mutated[rng.uniformInt(mutated.size())];
        const auto eq = victim.find('=');
        ASSERT_NE(eq, std::string::npos);
        const std::size_t pos = rng.uniformInt(eq);
        victim.insert(pos, 1, 'z');

        std::string text;
        for (const std::string &l : mutated)
            text += l + "\n";
        EXPECT_THROW(parseCampaignConfig(text), std::exception)
            << "round " << round << ": '" << victim << "'";
    }
}

TEST(ConfigParserFuzz, RandomlyCorruptedKeysNeverParseSilently)
{
    // Mutating any key name must produce an error, not a silently
    // defaulted config: every line of the rendered format is
    // load-bearing.
    Rng rng(0xfacade);
    const std::string rendered =
        renderExplorationConfig(randomConfig(rng));
    std::vector<std::string> lines;
    std::istringstream iss(rendered);
    std::string line;
    while (std::getline(iss, line))
        lines.push_back(line);

    for (int round = 0; round < 50; ++round) {
        std::vector<std::string> mutated = lines;
        std::string &victim = mutated[rng.uniformInt(mutated.size())];
        const auto eq = victim.find('=');
        ASSERT_NE(eq, std::string::npos);
        // Corrupt the key portion (insert a character).
        const std::size_t pos = rng.uniformInt(eq);
        victim.insert(pos, 1, 'z');

        std::string text;
        for (const std::string &l : mutated)
            text += l + "\n";
        EXPECT_THROW(parseExplorationConfig(text), std::exception)
            << "round " << round << ": '" << victim << "'";
    }
}

} // namespace
} // namespace autocat
