/**
 * @file
 * Recorded rollout observations for benches and kernel tests: the rows
 * a seeded uniform-random policy meets in the time-to-discovery cells'
 * environments (ttdbench/src/discovery.cpp). A training minibatch looks
 * like these, mostly zeros in one-hot slots, where a synthetic input
 * would not. Header-only and kept out of libautocat; compiled by
 * bench/microbench.cpp and tests/test_mat_kernels.cpp.
 */

#ifndef AUTOCAT_BENCH_ROLLOUT_OBSERVATIONS_HPP
#define AUTOCAT_BENCH_ROLLOUT_OBSERVATIONS_HPP

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/config_parser.hpp"
#include "env/env_registry.hpp"
#include "rl/mat.hpp"
#include "util/rng.hpp"

namespace autocat {
namespace bench {

/**
 * @p rows consecutive observations, episodes restarting as they end:
 * the paper cell's 251-wide Table V guessing game (@p tlb false) or the
 * 137-wide 2-way TLB prime+probe cell.
 */
inline Matrix
rolloutObservations(bool tlb, std::size_t rows)
{
    const char *const guessing = R"(
scenario = guessing_game
num_sets = 1
num_ways = 4
rep_policy = lru
attack_addr_s = 0
attack_addr_e = 4
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 16
)";
    const char *const tlb_evict = R"(
scenario = tlb_evict
tlb.num_sets = 1
tlb.num_ways = 2
tlb.rep_policy = lru
tlb.walk_levels = 2
tlb.level_bits = 2
attack_addr_s = 0
attack_addr_e = 2
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 10
)";
    const ExplorationConfig cfg =
        parseExplorationConfig(tlb ? tlb_evict : guessing);
    auto env = makeEnv(cfg.scenario, cfg.env);
    Rng rng(5);
    Matrix obs(rows, env->observationSize());
    std::vector<float> o = env->reset();
    for (std::size_t r = 0; r < rows; ++r) {
        std::copy(o.begin(), o.end(), obs.rowPtr(r));
        StepResult step = env->step(rng.uniformInt(env->numActions()));
        o = step.done ? env->reset() : std::move(step.obs);
    }
    return obs;
}

} // namespace bench
} // namespace autocat

#endif // AUTOCAT_BENCH_ROLLOUT_OBSERVATIONS_HPP
