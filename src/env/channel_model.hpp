/**
 * @file
 * Attacked-resource abstraction behind the guessing game.
 *
 * AutoCAT's observe/prime/probe/guess loop is not cache-specific: any
 * microarchitectural resource where the attacker's own operation
 * latency depends on prior victim activity supports the same game. A
 * ChannelModel is that resource: it answers the attacker's accesses
 * and flushes with a hit/miss bit, interprets the victim's secret as
 * channel-specific activity when the victim is triggered, and exposes
 * the reset/warm-up/event hooks the episode machinery needs.
 *
 * Concrete channels:
 *  - MemoryChannel:        the classic cache channel over any
 *                          MemorySystem (single level or hierarchy);
 *                          bitwise-identical to the pre-channel game.
 *  - TlbChannel:           prime+probe over TLB sets (cache/tlb.hpp);
 *                          the victim's secret is the page it touches.
 *  - PrefetchProbeChannel: the stream prefetcher as the leak: the
 *                          victim's secret selects the stride of its
 *                          access burst, and the prefetch the stride
 *                          triggers perturbs cache state the attacker
 *                          can probe.
 *
 * The game keeps its devirtualized hot path: a channel that is backed
 * by a plain Cache exposes it through fastAttackerCache() /
 * fastVictimCache(), and CacheGuessingGame routes attacker accesses
 * (and, when allowed, the victim's single access) straight to
 * Cache::accessFast.
 */

#ifndef AUTOCAT_ENV_CHANNEL_MODEL_HPP
#define AUTOCAT_ENV_CHANNEL_MODEL_HPP

#include <cstdint>
#include <memory>

#include "cache/memory_system.hpp"
#include "cache/prefetcher.hpp"
#include "cache/tlb.hpp"

namespace autocat {

/** An attacked microarchitectural resource. */
class ChannelModel
{
  public:
    virtual ~ChannelModel() = default;

    /** Attacker access to @p addr; returns the hit flag (the latency
     *  class the agent observes). */
    virtual bool attackerAccess(std::uint64_t addr) = 0;

    /** Attacker flush (clflush / invlpg analog) of @p addr. */
    virtual void attackerFlush(std::uint64_t addr) = 0;

    /**
     * The victim was triggered with @p secret: perform the channel's
     * secret-dependent activity (a single access for cache/TLB
     * channels, a strided burst for the prefetcher channel).
     */
    virtual void victimTransmit(std::uint64_t secret) = 0;

    /** One warm-up access from @p domain (Section VI-B init scheme). */
    virtual void warmupAccess(std::uint64_t addr, Domain domain) = 0;

    /** Drop all channel state (episode reset). */
    virtual void reset() = 0;

    /** PL-cache-style lock of @p addr; default: unsupported. */
    virtual bool
    lockLine(std::uint64_t addr, Domain domain)
    {
        (void)addr;
        (void)domain;
        return false;
    }

    /** Register the (single) event listener feeding the detectors. */
    virtual void setEventListener(CacheEventListener listener) = 0;

    /** Resource entries visible to the attack (window-size heuristic). */
    virtual unsigned numBlocks() const = 0;

    /** Cache that attacker accesses / warm-ups may hit directly via
     *  Cache::accessFast (devirtualized hot path); null keeps the
     *  virtual path. */
    virtual Cache *fastAttackerCache() { return nullptr; }

    /** Cache the victim's transmit is a single plain access to; null
     *  means victimTransmit() must run (channel-specific activity). */
    virtual Cache *fastVictimCache() { return nullptr; }

    /** Backing MemorySystem, when the channel is the cache channel
     *  (tests, state dumps); null for non-memory channels. */
    virtual MemorySystem *memorySystem() { return nullptr; }
};

/** The classic cache channel: a thin adapter over a MemorySystem. */
class MemoryChannel : public ChannelModel
{
  public:
    explicit MemoryChannel(std::unique_ptr<MemorySystem> memory);

    bool attackerAccess(std::uint64_t addr) override;
    void attackerFlush(std::uint64_t addr) override;
    void victimTransmit(std::uint64_t secret) override;
    void warmupAccess(std::uint64_t addr, Domain domain) override;
    void reset() override;
    bool lockLine(std::uint64_t addr, Domain domain) override;
    void setEventListener(CacheEventListener listener) override;
    unsigned numBlocks() const override;
    Cache *fastAttackerCache() override;
    Cache *fastVictimCache() override;
    MemorySystem *memorySystem() override { return memory_.get(); }

  private:
    std::unique_ptr<MemorySystem> memory_;
    Cache *flat_ = nullptr;  ///< set when memory_ is a SingleLevelMemory
};

/** Prime+probe over TLB sets; the secret is the victim's page. */
class TlbChannel : public ChannelModel
{
  public:
    explicit TlbChannel(const TlbConfig &config);

    bool attackerAccess(std::uint64_t addr) override;
    void attackerFlush(std::uint64_t addr) override;
    void victimTransmit(std::uint64_t secret) override;
    void warmupAccess(std::uint64_t addr, Domain domain) override;
    void reset() override;
    void setEventListener(CacheEventListener listener) override;
    unsigned numBlocks() const override;

    /** The underlying TLB (tests, state dumps). */
    Tlb &tlb() { return tlb_; }

  private:
    Tlb tlb_;
};

/**
 * The stream prefetcher as the attacked resource. The victim's secret
 * selects the stride of its access burst (stride = secret -
 * victimAddrS + 1, so every secret is a distinct non-zero stride); the
 * channel feeds the burst through its own victim-side stride detector
 * and installs the prefetches it issues into the cache. The attacker
 * probes the cache normally — prefetch-induced (dis)placements are the
 * leak. Attacker accesses and warm-up traffic never train the victim's
 * stride detector, and the detector restarts at every trigger so
 * consecutive transmissions stay independent.
 */
class PrefetchProbeChannel : public ChannelModel
{
  public:
    /**
     * @param cache      geometry of the probed cache; any internal
     *                   prefetcher is stripped (the channel owns the
     *                   modeled prefetcher)
     * @param victimAddrS start of the victim range (stride base)
     * @param burstLen   accesses per victim burst (>= 1)
     * @param burstBase  first address of every burst
     */
    PrefetchProbeChannel(CacheConfig cache, std::uint64_t victimAddrS,
                         unsigned burstLen, std::uint64_t burstBase);

    bool attackerAccess(std::uint64_t addr) override;
    void attackerFlush(std::uint64_t addr) override;
    void victimTransmit(std::uint64_t secret) override;
    void warmupAccess(std::uint64_t addr, Domain domain) override;
    void reset() override;
    void setEventListener(CacheEventListener listener) override;
    unsigned numBlocks() const override;
    Cache *fastAttackerCache() override { return &cache_; }

    /** The probed cache (tests, state dumps). */
    Cache &cache() { return cache_; }

  private:
    Cache cache_;
    StreamPrefetcher prefetcher_;
    std::uint64_t victim_addr_s_;
    unsigned burst_len_;
    std::uint64_t burst_base_;
    std::uint64_t space_;
};

} // namespace autocat

#endif // AUTOCAT_ENV_CHANNEL_MODEL_HPP
