/**
 * @file
 * Discrete action space of the guessing game (Section IV-C).
 *
 * Layout (indices in order):
 *   [0, Na)            access attackAddrS + i            (aX)
 *   [Na, 2Na)          flush attackAddrS + i (if enabled) (afX)
 *   next 1             trigger the victim                 (av)
 *   next Nv            guess victimAddrS + j              (agY)
 *   next 1             guess "no access" (if enabled)     (agE)
 */

#ifndef AUTOCAT_ENV_ACTION_SPACE_HPP
#define AUTOCAT_ENV_ACTION_SPACE_HPP

#include <cassert>
#include <cstdint>
#include <string>

#include "env/env_config.hpp"

namespace autocat {

/** Kinds of primitive actions the agent can take. */
enum class ActionKind : std::uint8_t {
    Access,         ///< attacker memory access
    Flush,          ///< attacker clflush
    TriggerVictim,  ///< let the victim run its secret access
    Guess,          ///< guess a victim address
    GuessNoAccess,  ///< guess that the victim made no access
};

/** A decoded action. */
struct Action
{
    ActionKind kind = ActionKind::Access;
    std::uint64_t addr = 0;  ///< meaningful for Access / Flush / Guess

    bool
    isGuess() const
    {
        return kind == ActionKind::Guess ||
               kind == ActionKind::GuessNoAccess;
    }
};

/** Bijection between action indices and Action records. */
class ActionSpace
{
  public:
    explicit ActionSpace(const EnvConfig &config);

    /** Total number of discrete actions. */
    std::size_t size() const { return size_; }

    /** Decode an index into an Action. Inline: this runs once per
     *  environment step. */
    Action
    decode(std::size_t index) const
    {
        assert(index < size_);
        Action a;
        if (index < flush_base_) {
            a.kind = ActionKind::Access;
            a.addr = attack_s_ + index;
        } else if (index < trigger_base_) {
            a.kind = ActionKind::Flush;
            a.addr = attack_s_ + (index - flush_base_);
        } else if (index == trigger_base_) {
            a.kind = ActionKind::TriggerVictim;
        } else if (index < guess_base_ + num_guess_) {
            a.kind = ActionKind::Guess;
            a.addr = victim_s_ + (index - guess_base_);
        } else {
            assert(guess_empty_);
            a.kind = ActionKind::GuessNoAccess;
        }
        return a;
    }

    /** Encode an Action into its index. */
    std::size_t encode(const Action &action) const;

    /** Index of "access @p addr". */
    std::size_t accessIndex(std::uint64_t addr) const;

    /** Index of "flush @p addr" (flush must be enabled). */
    std::size_t flushIndex(std::uint64_t addr) const;

    /** Index of "trigger victim". */
    std::size_t triggerIndex() const { return trigger_base_; }

    /** Index of "guess @p addr". */
    std::size_t guessIndex(std::uint64_t addr) const;

    /** Index of "guess no access" (must be enabled). */
    std::size_t guessNoAccessIndex() const;

    /** True when @p index is a guess action. */
    bool isGuess(std::size_t index) const;

    /** Number of primitive (non-guess) actions. */
    std::size_t numPrimitives() const { return trigger_base_ + 1; }

    /** First guess index; [guessBase(), size()) are the guesses. */
    std::size_t guessBase() const { return guess_base_; }

    /**
     * Render the per-step validity/usefulness mask into @p mask
     * (size() bytes, 1 = selectable). With @p guesses_valid false the
     * guess block [guessBase(), size()) is masked; a non-negative
     * @p masked_repeat < guessBase() masks that single primitive
     * (the immediate-repeat uselessness rule — guess indices are never
     * repeat-masked). The result always keeps >= 1 selectable entry:
     * there are >= 2 primitives (>= 1 access plus the trigger) and the
     * repeat rule masks at most one of them.
     */
    void writeMask(std::uint8_t *mask, bool guesses_valid,
                   std::ptrdiff_t masked_repeat) const;

    /** Paper-style rendering, e.g. "3", "f3", "v", "g0", "gE". */
    std::string toString(std::size_t index) const;

  private:
    std::uint64_t attack_s_;
    std::uint64_t victim_s_;
    std::size_t num_access_;
    std::size_t num_flush_;
    std::size_t num_guess_;
    bool guess_empty_;
    std::size_t flush_base_;
    std::size_t trigger_base_;
    std::size_t guess_base_;
    std::size_t size_;
};

} // namespace autocat

#endif // AUTOCAT_ENV_ACTION_SPACE_HPP
