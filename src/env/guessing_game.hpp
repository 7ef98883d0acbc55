/**
 * @file
 * The cache guessing game (Sections III-B and IV of the paper).
 *
 * An RL agent controls the attack program: it accesses / flushes its
 * own addresses, decides when the victim runs, and finally guesses the
 * victim's secret address. The environment owns the attacked channel
 * (a ChannelModel — the classic cache channel, the TLB, or the
 * prefetcher side channel), the secret, the guess evaluator, the
 * reward shaping, and optional detector hooks (Section V-D case
 * studies).
 */

#ifndef AUTOCAT_ENV_GUESSING_GAME_HPP
#define AUTOCAT_ENV_GUESSING_GAME_HPP

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/memory_system.hpp"
#include "detect/detector.hpp"
#include "env/action_space.hpp"
#include "env/channel_model.hpp"
#include "env/env_config.hpp"
#include "rl/env_interface.hpp"
#include "util/rng.hpp"

namespace autocat {

/** Latency classes visible to the agent. */
enum LatencyClass : int { LatHit = 0, LatMiss = 1, LatNa = 2 };

/** Build the memory system an EnvConfig describes. */
std::unique_ptr<MemorySystem> makeMemorySystem(const EnvConfig &config);

/** Gym-style guessing-game environment. */
class CacheGuessingGame : public Environment
{
  public:
    /**
     * Construct with an internally-built memory system.
     */
    explicit CacheGuessingGame(const EnvConfig &config);

    /**
     * Construct around an externally-provided memory system (e.g. the
     * simulated real-hardware target in src/hw). The environment takes
     * ownership (wrapping it in a MemoryChannel).
     */
    CacheGuessingGame(const EnvConfig &config,
                      std::unique_ptr<MemorySystem> memory);

    /**
     * Construct over an arbitrary attacked channel (TLB, prefetcher
     * side channel, ...). The environment takes ownership. The config's
     * window/episode knobs must already be resolved against the
     * channel's geometry (the registry factories do this).
     */
    CacheGuessingGame(const EnvConfig &config,
                      std::unique_ptr<ChannelModel> channel);

    // The channel's event listener captures `this`; copying or
    // moving would leave it dangling.
    CacheGuessingGame(const CacheGuessingGame &) = delete;
    CacheGuessingGame &operator=(const CacheGuessingGame &) = delete;

    // Environment interface ------------------------------------------
    std::size_t observationSize() const override;
    std::size_t numActions() const override;
    std::vector<float> reset() override;
    StepResult step(std::size_t action) override;

    // Fast path ------------------------------------------------------
    /**
     * step() without materializing the observation vector. The
     * persistent observation row is kept up to date incrementally;
     * step() is a thin wrapper that copies it into the returned
     * StepResult.
     */
    struct FastStep
    {
        double reward = 0.0;
        bool done = false;
        StepInfo info;
    };
    FastStep stepFast(std::size_t action);

    /** reset() without materializing the observation vector; the
     *  persistent observation row is rebuilt in place. */
    void resetRow();

    // Action masking (sample-efficiency layer) ------------------------
    /**
     * The per-step validity/usefulness mask (numActions() bytes,
     * 1 = selectable), kept current across reset()/step()/stepFast()
     * like the observation row — or nullptr when neither maskActions
     * nor maskUselessActions is set, so unmasked configs pay nothing
     * and the trainer's legacy path is taken bit-for-bit.
     */
    const std::uint8_t *actionMask() const override
    {
        return mask_enabled_ ? mask_.data() : nullptr;
    }

    /**
     * Encode the full observation from scratch. This is the oracle the
     * incrementally-maintained row is tested against; hot paths never
     * call it outside reset/reveal/multi-secret boundaries.
     */
    std::vector<float> rebuildObservation() const;

    // Introspection ---------------------------------------------------
    /** The action-space layout. */
    const ActionSpace &actionSpace() const { return actions_; }

    /** The configuration. */
    const EnvConfig &config() const { return config_; }

    /** Current secret; nullopt encodes "victim makes no access". */
    std::optional<std::uint64_t> secret() const { return secret_; }

    /** All possible secret values (victim addresses, then no-access). */
    std::vector<std::optional<std::uint64_t>> secretSpace() const;

    /**
     * Override the current episode's secret (deterministic replay,
     * sequence evaluation, tests). Call immediately after reset().
     */
    void forceSecret(std::optional<std::uint64_t> secret);

    /** The attacked channel (tests, state dumps). */
    ChannelModel &channel() { return *channel_; }

    /**
     * The underlying memory system (tests, state dumps). Only valid
     * for cache-channel games — i.e. whenever the environment was
     * built from an EnvConfig or a MemorySystem; throws for TLB /
     * prefetcher channels, which have no MemorySystem behind them.
     */
    MemorySystem &memory();

    /**
     * Attach a detector. Terminate-mode detectors end the episode with
     * detectionReward when they fire (requires detectionEnable);
     * Penalize-mode detectors contribute step and episode-end reward
     * penalties without terminating.
     */
    void attachDetector(std::shared_ptr<Detector> detector,
                        DetectorMode mode);

    /** Steps taken in the current episode. */
    unsigned stepsTaken() const { return step_count_; }

    /** Reseed the environment RNG (independent evaluation streams,
     *  campaign checkpoint boundaries). */
    void reseed(std::uint64_t seed) override { rng_.reseed(seed); }

  private:
    struct HistorySlot
    {
        int visibleLat = LatNa;  ///< latency class shown to the agent
        int actualLat = LatNa;   ///< true latency (reveal mode)
        std::size_t action = 0;
        unsigned step = 0;
        bool victimTriggered = false;
    };

    /** Per-attacker-address summary states (see buildObservation). */
    enum AddrLat : int {
        AddrHit = 0,
        AddrMiss = 1,
        AddrMasked = 2,
        AddrNever = 3,
    };

    void installListener();
    void initializeEpisodeState();
    void pushHistory(std::size_t action, int actual_lat);
    void buildObservationInto(float *out) const;
    std::optional<std::uint64_t> sampleSecret();

    /** The @p i-th oldest live history slot (i < hist_count_). */
    HistorySlot &
    histSlot(std::size_t i)
    {
        std::size_t idx = hist_head_ + i;
        if (idx >= window_)
            idx -= window_;
        return history_[idx];
    }
    const HistorySlot &
    histSlot(std::size_t i) const
    {
        std::size_t idx = hist_head_ + i;
        if (idx >= window_)
            idx -= window_;
        return history_[idx];
    }

    // Incremental maintenance of the persistent observation row.
    void advanceRowWindow();
    void refreshSummaryCells(std::size_t off);
    void refreshPostRegion();
    void writeRowGlobals();

    /** Re-render mask_ from the current episode state (mask_enabled_). */
    void refreshMask();

    EnvConfig config_;
    ActionSpace actions_;
    std::unique_ptr<ChannelModel> channel_;

    /**
     * Devirtualized access path when the channel is backed by a plain
     * Cache (the common scenario): attacker demand accesses go
     * straight to Cache::accessFast, skipping the virtual channel
     * dispatch. Null for hierarchies, the TLB channel, and custom
     * channels, which keep the interface path. victim_flat_cache_ is
     * the same shortcut for the victim's transmit, null whenever the
     * channel's transmit is more than a single access.
     */
    Cache *flat_cache_ = nullptr;
    Cache *victim_flat_cache_ = nullptr;

    Rng rng_;

    struct DetectorEntry
    {
        std::shared_ptr<Detector> detector;
        DetectorMode mode;
    };
    std::vector<DetectorEntry> detectors_;

    unsigned window_;
    unsigned length_limit_;
    std::size_t slot_dim_;

    // Episode state.
    std::optional<std::uint64_t> secret_;
    bool victim_triggered_ = false;
    bool revealed_ = false;
    bool done_ = true;
    unsigned step_count_ = 0;
    unsigned guesses_this_episode_ = 0;

    // Action-masking / reward-shaping state (sample-efficiency layer).
    bool mask_enabled_ = false;    ///< maskActions || maskUselessActions
    bool shaping_enabled_ = false; ///< uselessActionPenalty != 0
    bool track_last_ = false;      ///< mask_enabled_ || shaping_enabled_
    std::ptrdiff_t last_action_ = -1;  ///< previous step's action index
    std::vector<std::uint8_t> mask_;  ///< numActions() bytes

    /**
     * Fixed-capacity ring of the last window_ steps (oldest at
     * hist_head_). A deque here would pay an allocation check and a
     * size test on every push of the hottest path.
     */
    std::vector<HistorySlot> history_;
    std::size_t hist_head_ = 0;   ///< index of the oldest live slot
    std::size_t hist_count_ = 0;  ///< live slots (<= window_)

    /**
     * Summary feature state: the latency class last observed for each
     * attacker address (actual, and the masked view shown before a
     * reveal in batched mode). This is a re-encoding of information
     * already present in the observation window — it gives the MLP
     * policy fixed-position access to the per-address timing the
     * paper's Transformer extracts by pooling over the window.
     */
    std::vector<int> addr_lat_actual_;
    std::vector<int> addr_lat_visible_;

    /** Same summary restricted to accesses after the last trigger. */
    std::vector<int> addr_lat_post_actual_;
    std::vector<int> addr_lat_post_visible_;

    /**
     * Persistent observation row. Invariant after
     * reset()/step()/stepFast(): row_ == rebuildObservation().
     */
    std::vector<float> row_;

    /**
     * Normalized step fractions, precomputed so the per-step row
     * encode performs table lookups instead of float divisions. The
     * entries are the exact divisions the observation contract
     * specifies (slot: t / max(1, length_limit); globals: t over the
     * mode's episode length), done once at construction — the encoded
     * floats are bitwise-unchanged.
     */
    std::vector<float> slot_norm_;
    std::vector<float> prog_norm_;

    /**
     * A fresh episode's observation row is a pure function of the
     * layout (empty window, all-AddrNever summaries, zero globals), so
     * reset memcpys this template instead of re-encoding it.
     */
    std::vector<float> fresh_row_;

    /** Warm-up address pool (Section VI-B), built once: the union of
     *  the attack and victim ranges with their access domains. */
    struct WarmupAddr
    {
        std::uint64_t addr;
        Domain domain;
    };
    std::vector<WarmupAddr> warm_pool_;
};

} // namespace autocat

#endif // AUTOCAT_ENV_GUESSING_GAME_HPP
