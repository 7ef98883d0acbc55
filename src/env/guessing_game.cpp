#include "env/guessing_game.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

namespace autocat {

std::unique_ptr<MemorySystem>
makeMemorySystem(const EnvConfig &config)
{
    if (!config.hierarchy.levels.empty())
        return std::make_unique<CacheHierarchy>(config.hierarchy);
    return std::make_unique<SingleLevelMemory>(config.cache);
}

CacheGuessingGame::CacheGuessingGame(const EnvConfig &config)
    : CacheGuessingGame(config, makeMemorySystem(config))
{
}

CacheGuessingGame::CacheGuessingGame(const EnvConfig &config,
                                     std::unique_ptr<MemorySystem> memory)
    : CacheGuessingGame(
          config, std::make_unique<MemoryChannel>(std::move(memory)))
{
}

CacheGuessingGame::CacheGuessingGame(const EnvConfig &config,
                                     std::unique_ptr<ChannelModel> channel)
    : config_(config),
      actions_(config),
      channel_(std::move(channel)),
      rng_(config.seed),
      window_(config.resolvedWindowSize()),
      length_limit_(config.resolvedLengthLimit())
{
    if (config_.attackAddrE < config_.attackAddrS ||
        config_.victimAddrE < config_.victimAddrS) {
        throw std::invalid_argument("env: empty address range");
    }
    // Per-slot features: latency one-hot (3) + action one-hot (A) +
    // normalized step (1) + victim-triggered flag (1).
    slot_dim_ = 3 + actions_.size() + 2;
    row_.assign(observationSize(), 0.0f);

    flat_cache_ = channel_->fastAttackerCache();
    victim_flat_cache_ = channel_->fastVictimCache();

    history_.resize(window_);

    // Step counts never exceed the mode's episode length (stepFast
    // raises done_ at the boundary), so these tables cover every value
    // the encode can see.
    const unsigned max_steps =
        std::max(length_limit_, config_.multiSecret
                                    ? config_.multiSecretEpisodeSteps
                                    : 0u);
    const float slot_denom =
        static_cast<float>(std::max(1u, length_limit_));
    const float prog_denom = static_cast<float>(
        std::max(1u, config_.multiSecret ? config_.multiSecretEpisodeSteps
                                         : length_limit_));
    slot_norm_.resize(static_cast<std::size_t>(max_steps) + 1);
    prog_norm_.resize(static_cast<std::size_t>(max_steps) + 1);
    for (unsigned t = 0; t <= max_steps; ++t) {
        slot_norm_[t] = static_cast<float>(t) / slot_denom;
        prog_norm_[t] = static_cast<float>(t) / prog_denom;
    }

    for (std::uint64_t a = config_.attackAddrS; a <= config_.attackAddrE;
         ++a) {
        warm_pool_.push_back({a, Domain::Attacker});
    }
    for (std::uint64_t a = config_.victimAddrS; a <= config_.victimAddrE;
         ++a) {
        if (a < config_.attackAddrS || a > config_.attackAddrE)
            warm_pool_.push_back({a, Domain::Victim});
    }

    // Size the summary state so the fresh-episode template can be
    // rendered now; resetRow() re-assigns the same values each episode.
    addr_lat_actual_.assign(
        static_cast<std::size_t>(config_.numAttackAddrs()), AddrNever);
    addr_lat_visible_ = addr_lat_actual_;
    addr_lat_post_actual_ = addr_lat_actual_;
    addr_lat_post_visible_ = addr_lat_actual_;
    fresh_row_.resize(observationSize());
    buildObservationInto(fresh_row_.data());

    mask_enabled_ = config_.maskActions || config_.maskUselessActions;
    shaping_enabled_ = config_.uselessActionPenalty != 0.0;
    if (config_.uselessActionPenalty < 0.0) {
        throw std::invalid_argument(
            "env: useless_action_penalty must be >= 0");
    }
    track_last_ = mask_enabled_ || shaping_enabled_;
    mask_.assign(actions_.size(), std::uint8_t{1});
}

MemorySystem &
CacheGuessingGame::memory()
{
    MemorySystem *mem = channel_->memorySystem();
    if (!mem) {
        throw std::logic_error(
            "CacheGuessingGame::memory(): channel has no MemorySystem");
    }
    return *mem;
}

void
CacheGuessingGame::installListener()
{
    channel_->setEventListener([this](const CacheEvent &ev) {
        for (auto &entry : detectors_)
            entry.detector->onEvent(ev);
    });
}

void
CacheGuessingGame::attachDetector(std::shared_ptr<Detector> detector,
                                  DetectorMode mode)
{
    assert(detector);
    // The event listener is installed lazily on the first attachment:
    // a detector-free environment pays no per-event std::function
    // dispatch in the cache model's access path.
    if (detectors_.empty())
        installListener();
    // A detector attached after reset() would otherwise carry whatever
    // per-episode state it accumulated elsewhere until the *next*
    // episode delivers onEpisodeReset() — campaign phases attach
    // detectors mid-session, so clear it now.
    detector->onEpisodeReset();
    detectors_.push_back({std::move(detector), mode});
}

std::size_t
CacheGuessingGame::observationSize() const
{
    // Window slots, plus two 4-state latency summaries per attacker
    // address (whole episode, and since the last victim trigger), plus
    // three global features: reveal-phase flag, victim-triggered flag,
    // and normalized episode progress.
    return static_cast<std::size_t>(window_) * slot_dim_ +
           8 * static_cast<std::size_t>(config_.numAttackAddrs()) + 3;
}

std::size_t
CacheGuessingGame::numActions() const
{
    return actions_.size();
}

std::vector<std::optional<std::uint64_t>>
CacheGuessingGame::secretSpace() const
{
    std::vector<std::optional<std::uint64_t>> secrets;
    for (std::uint64_t a = config_.victimAddrS; a <= config_.victimAddrE;
         ++a) {
        secrets.emplace_back(a);
    }
    if (config_.victimNoAccessEnable)
        secrets.emplace_back(std::nullopt);
    return secrets;
}

std::optional<std::uint64_t>
CacheGuessingGame::sampleSecret()
{
    const std::uint64_t n = config_.numSecrets();
    const std::uint64_t pick = rng_.uniformInt(n);
    if (pick < config_.numVictimAddrs())
        return config_.victimAddrS + pick;
    return std::nullopt;  // victim makes no access
}

void
CacheGuessingGame::initializeEpisodeState()
{
    channel_->reset();

    if (config_.plCacheLockVictim) {
        for (std::uint64_t a = config_.victimAddrS;
             a <= config_.victimAddrE; ++a) {
            channel_->lockLine(a, Domain::Victim);
        }
    }

    // Warm the channel with accesses sampled uniformly over the union
    // of the attack and victim address ranges (Section VI-B
    // initialization scheme). Locked lines survive.
    const unsigned warmups = config_.resolvedInitAccesses();
    for (unsigned i = 0; i < warmups; ++i) {
        const WarmupAddr &w = warm_pool_[rng_.uniformInt(warm_pool_.size())];
        if (flat_cache_)
            flat_cache_->accessFast(w.addr, w.domain);
        else
            channel_->warmupAccess(w.addr, w.domain);
    }

    // Detectors must not see the warm-up traffic.
    for (auto &entry : detectors_)
        entry.detector->onEpisodeReset();
}

std::vector<float>
CacheGuessingGame::reset()
{
    resetRow();
    return row_;
}

void
CacheGuessingGame::resetRow()
{
    initializeEpisodeState();
    secret_ = sampleSecret();
    victim_triggered_ = false;
    revealed_ = false;
    done_ = false;
    step_count_ = 0;
    guesses_this_episode_ = 0;
    hist_head_ = 0;
    hist_count_ = 0;
    std::fill(addr_lat_actual_.begin(), addr_lat_actual_.end(),
              static_cast<int>(AddrNever));
    addr_lat_visible_ = addr_lat_actual_;
    addr_lat_post_actual_ = addr_lat_actual_;
    addr_lat_post_visible_ = addr_lat_actual_;
    // The fresh row is episode-independent; copy the template instead
    // of re-encoding it.
    row_ = fresh_row_;
    if (track_last_) {
        last_action_ = -1;
        if (mask_enabled_)
            refreshMask();
    }
}

void
CacheGuessingGame::refreshMask()
{
    // Guesses are selectable whenever a guess could score as correct —
    // or when the next guess is the reveal action of the batched
    // real-hardware mode, which is always useful.
    const bool guesses_valid =
        !config_.maskActions || victim_triggered_ ||
        !config_.requireTriggerBeforeGuess ||
        (config_.revealOnGuess && !revealed_);
    actions_.writeMask(mask_.data(), guesses_valid,
                       config_.maskUselessActions ? last_action_ : -1);
}

void
CacheGuessingGame::forceSecret(std::optional<std::uint64_t> secret)
{
    if (secret && (*secret < config_.victimAddrS ||
                   *secret > config_.victimAddrE)) {
        throw std::out_of_range("forced secret outside victim range");
    }
    if (!secret && !config_.victimNoAccessEnable)
        throw std::logic_error("no-access secret is disabled");
    secret_ = secret;
}

void
CacheGuessingGame::pushHistory(std::size_t action, int actual_lat)
{
    HistorySlot &slot = hist_count_ < window_
                            ? histSlot(hist_count_)
                            : histSlot(0);
    slot.actualLat = actual_lat;
    // In reveal mode latencies stay masked until the reveal point.
    slot.visibleLat =
        (config_.revealOnGuess && !revealed_) ? LatNa : actual_lat;
    slot.action = action;
    slot.step = step_count_;
    slot.victimTriggered = victim_triggered_;
    if (hist_count_ < window_) {
        ++hist_count_;
    } else {
        // Full ring: the oldest slot was just overwritten in place.
        ++hist_head_;
        if (hist_head_ >= window_)
            hist_head_ = 0;
    }
}

std::vector<float>
CacheGuessingGame::rebuildObservation() const
{
    std::vector<float> obs(observationSize());
    buildObservationInto(obs.data());
    return obs;
}

void
CacheGuessingGame::buildObservationInto(float *out) const
{
    std::fill(out, out + observationSize(), 0.0f);
    // Newest slot occupies the last window position so the most recent
    // context always lives at a fixed offset.
    const std::size_t count = hist_count_;
    for (std::size_t i = 0; i < count; ++i) {
        const HistorySlot &slot = histSlot(i);
        const std::size_t pos = window_ - count + i;
        float *base = out + pos * slot_dim_;
        base[slot.visibleLat] = 1.0f;
        base[3 + slot.action] = 1.0f;
        base[3 + actions_.size()] = slot_norm_[slot.step];
        base[3 + actions_.size() + 1] = slot.victimTriggered ? 1.0f : 0.0f;
    }
    // Per-address latency summaries (fixed positions).
    std::size_t offset = window_ * slot_dim_;
    for (std::size_t a = 0; a < addr_lat_visible_.size(); ++a)
        out[offset + 4 * a + addr_lat_visible_[a]] = 1.0f;
    offset += 4 * addr_lat_visible_.size();
    for (std::size_t a = 0; a < addr_lat_post_visible_.size(); ++a)
        out[offset + 4 * a + addr_lat_post_visible_[a]] = 1.0f;
    offset += 4 * addr_lat_post_visible_.size();

    out[offset] = revealed_ ? 1.0f : 0.0f;
    out[offset + 1] = victim_triggered_ ? 1.0f : 0.0f;
    out[offset + 2] = prog_norm_[step_count_];
}

/*
 * Incremental row maintenance. A normal step changes the observation
 * in three small, disjoint places: the window shifts left by one slot
 * and the newest history entry is encoded at the end; at most one
 * attacker address changes its summary one-hots (or the post-trigger
 * region resets); and the three global features are rewritten. The
 * rare structural events — reset, the reveal transition, a
 * multi-secret symbol boundary — rewrite state across the whole window
 * and fall back to buildObservationInto().
 */

void
CacheGuessingGame::advanceRowWindow()
{
    float *w = row_.data();
    std::memmove(w, w + slot_dim_,
                 (static_cast<std::size_t>(window_) - 1) * slot_dim_ *
                     sizeof(float));
    float *slot = w + (static_cast<std::size_t>(window_) - 1) * slot_dim_;
    std::fill(slot, slot + slot_dim_, 0.0f);
    const HistorySlot &hs = histSlot(hist_count_ - 1);
    slot[hs.visibleLat] = 1.0f;
    slot[3 + hs.action] = 1.0f;
    slot[3 + actions_.size()] = slot_norm_[hs.step];
    slot[3 + actions_.size() + 1] = hs.victimTriggered ? 1.0f : 0.0f;
}

void
CacheGuessingGame::refreshSummaryCells(std::size_t off)
{
    const std::size_t num_addrs = addr_lat_visible_.size();
    float *episode =
        row_.data() + static_cast<std::size_t>(window_) * slot_dim_ +
        4 * off;
    episode[0] = episode[1] = episode[2] = episode[3] = 0.0f;
    episode[addr_lat_visible_[off]] = 1.0f;
    float *post = episode + 4 * num_addrs;
    post[0] = post[1] = post[2] = post[3] = 0.0f;
    post[addr_lat_post_visible_[off]] = 1.0f;
}

void
CacheGuessingGame::refreshPostRegion()
{
    const std::size_t num_addrs = addr_lat_post_visible_.size();
    float *post = row_.data() +
                  static_cast<std::size_t>(window_) * slot_dim_ +
                  4 * num_addrs;
    std::fill(post, post + 4 * num_addrs, 0.0f);
    for (std::size_t a = 0; a < num_addrs; ++a)
        post[4 * a + addr_lat_post_visible_[a]] = 1.0f;
}

void
CacheGuessingGame::writeRowGlobals()
{
    float *g = row_.data() +
               static_cast<std::size_t>(window_) * slot_dim_ +
               8 * addr_lat_visible_.size();
    g[0] = revealed_ ? 1.0f : 0.0f;
    g[1] = victim_triggered_ ? 1.0f : 0.0f;
    g[2] = prog_norm_[step_count_];
}

StepResult
CacheGuessingGame::step(std::size_t action_index)
{
    const FastStep fs = stepFast(action_index);
    StepResult result;
    result.reward = fs.reward;
    result.done = fs.done;
    result.info = fs.info;
    result.obs = row_;
    return result;
}

CacheGuessingGame::FastStep
CacheGuessingGame::stepFast(std::size_t action_index)
{
    if (done_)
        throw std::logic_error("step() after episode end; call reset()");
    assert(action_index < actions_.size());

    FastStep result;
    const Action action = actions_.decode(action_index);
    ++step_count_;

    // How the observation row must be refreshed after this step:
    // full rebuild on structural events, otherwise the summary cells
    // of at most one touched address (or a post-region reset).
    bool rebuild = false;
    bool post_reset = false;
    std::ptrdiff_t touched_addr = -1;

    int lat = LatNa;
    double reward = 0.0;

    switch (action.kind) {
      case ActionKind::Access: {
        const bool hit =
            flat_cache_
                ? flat_cache_->accessFast(action.addr, Domain::Attacker)
                : channel_->attackerAccess(action.addr);
        lat = hit ? LatHit : LatMiss;
        reward += config_.stepReward;
        const std::size_t off =
            static_cast<std::size_t>(action.addr - config_.attackAddrS);
        const int cls = hit ? AddrHit : AddrMiss;
        const bool masked = config_.revealOnGuess && !revealed_;
        addr_lat_actual_[off] = cls;
        addr_lat_visible_[off] = masked ? AddrMasked : cls;
        if (victim_triggered_) {
            addr_lat_post_actual_[off] = cls;
            addr_lat_post_visible_[off] = masked ? AddrMasked : cls;
        }
        touched_addr = static_cast<std::ptrdiff_t>(off);
        break;
      }
      case ActionKind::Flush: {
        channel_->attackerFlush(action.addr);
        reward += config_.stepReward;
        break;
      }
      case ActionKind::TriggerVictim: {
        if (secret_) {
            if (victim_flat_cache_)
                victim_flat_cache_->accessFast(*secret_, Domain::Victim);
            else
                channel_->victimTransmit(*secret_);
        }
        victim_triggered_ = true;
        reward += config_.stepReward;
        // The post-trigger summary restarts at each trigger.
        addr_lat_post_actual_.assign(addr_lat_post_actual_.size(),
                                     AddrNever);
        addr_lat_post_visible_ = addr_lat_post_actual_;
        post_reset = true;
        break;
      }
      case ActionKind::Guess:
      case ActionKind::GuessNoAccess: {
        if (config_.revealOnGuess && !revealed_) {
            // Real-hardware batched mode: the first guess action ends
            // the blind phase. The latency history becomes visible and
            // the agent guesses again with full information.
            revealed_ = true;
            for (std::size_t i = 0; i < hist_count_; ++i) {
                HistorySlot &slot = histSlot(i);
                slot.visibleLat = slot.actualLat;
            }
            addr_lat_visible_ = addr_lat_actual_;
            addr_lat_post_visible_ = addr_lat_post_actual_;
            reward += config_.stepReward;
            rebuild = true;  // every window slot's latency unmasked
            break;
        }
        const bool match =
            action.kind == ActionKind::GuessNoAccess
                ? !secret_.has_value()
                : (secret_.has_value() && action.addr == *secret_);
        const bool correct =
            match && (victim_triggered_ ||
                      !config_.requireTriggerBeforeGuess);
        reward += correct ? config_.correctGuessReward
                          : config_.wrongGuessReward;
        result.info.guessMade = true;
        result.info.guessCorrect = correct;
        ++guesses_this_episode_;

        if (config_.multiSecret) {
            // The guess transmits one symbol; the victim's next secret
            // is drawn fresh and the episode continues.
            secret_ = sampleSecret();
            victim_triggered_ = false;
            revealed_ = false;
            addr_lat_actual_.assign(addr_lat_actual_.size(), AddrNever);
            addr_lat_visible_ = addr_lat_actual_;
            addr_lat_post_actual_ = addr_lat_actual_;
            addr_lat_post_visible_ = addr_lat_actual_;
            rebuild = true;  // both summary regions restart
        } else {
            done_ = true;
        }
        break;
      }
    }

    // Useless-action shaping: an immediate repeat of the previous
    // non-guess action re-observes already-known state (re-access of
    // the MRU line, re-flush of an absent line, re-run of the victim)
    // and costs the configured penalty on top of the step reward.
    // Guarded so unshaped configs run the exact legacy arithmetic.
    if (shaping_enabled_ && !action.isGuess() &&
        last_action_ == static_cast<std::ptrdiff_t>(action_index)) {
        reward -= config_.uselessActionPenalty;
    }

    // Detector handling.
    for (auto &entry : detectors_) {
        reward += entry.detector->consumeStepPenalty();
        if (entry.mode == DetectorMode::Terminate &&
            config_.detectionEnable && entry.detector->flagged() &&
            !done_) {
            reward += config_.detectionReward;
            result.info.detected = true;
            done_ = true;
        }
    }

    // Episode length handling.
    if (!done_) {
        if (config_.multiSecret) {
            if (step_count_ >= config_.multiSecretEpisodeSteps) {
                done_ = true;
                if (guesses_this_episode_ == 0)
                    reward += config_.noGuessReward;
            }
        } else if (step_count_ >= length_limit_) {
            done_ = true;
            reward += config_.lengthViolationReward;
            result.info.lengthViolation = true;
        }
    }

    // Episode-end detector outcomes (penalties and detection flags).
    if (done_) {
        for (auto &entry : detectors_) {
            if (entry.mode == DetectorMode::Penalize) {
                reward += entry.detector->episodePenalty();
                if (entry.detector->flagged())
                    result.info.detected = true;
            }
        }
    }

    pushHistory(action_index, lat);

    if (rebuild) {
        buildObservationInto(row_.data());
    } else {
        advanceRowWindow();
        if (touched_addr >= 0)
            refreshSummaryCells(static_cast<std::size_t>(touched_addr));
        else if (post_reset)
            refreshPostRegion();
        writeRowGlobals();
    }

    if (track_last_) {
        last_action_ = static_cast<std::ptrdiff_t>(action_index);
        if (mask_enabled_)
            refreshMask();
    }

    result.reward = reward;
    result.done = done_;
    result.info.observedLatency =
        (config_.revealOnGuess && !revealed_) ? LatNa : lat;
    return result;
}

} // namespace autocat
