/**
 * @file
 * Decorator transparency: a small seeded cell trained through the
 * timing decorators (runTraced) must reach the same steps_to_discovery,
 * the same final accuracy (bitwise) and the same attack sequence as the
 * same cell run through an undecorated TrainingSession (runUntraced).
 *
 *     ctest --test-dir .bench_build/ttdbench -R test_decorators
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "discovery.hpp"

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
        ++failures;
    }
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

void
checkCell(const ttdbench::Cell &cell)
{
    ttdbench::SpeedRef ref = ttdbench::speedRefFor(cell);
    const ttdbench::CellRun plain = ttdbench::runUntraced(cell, ref);
    ttdbench::TraceState trace;
    const ttdbench::CellRun traced = ttdbench::runTraced(cell, 0, trace);
    const std::string tag = cell.name + ": ";
    check(plain.completed && traced.completed,
          tag + "cell threw: " + plain.error + traced.error);
    check(plain.converged, tag + "undecorated cell missed its target");
    check(traced.stepsToDiscovery == plain.stepsToDiscovery,
          tag + "steps_to_discovery " +
              std::to_string(traced.stepsToDiscovery) + " != " +
              std::to_string(plain.stepsToDiscovery));
    check(traced.envSteps == plain.envSteps, tag + "env steps differ");
    check(traced.epochs == plain.epochs, tag + "epoch counts differ");
    check(sameBits(traced.finalAccuracy, plain.finalAccuracy),
          tag + "final accuracy differs");
    check(traced.sequence == plain.sequence,
          tag + "sequence " + traced.sequence + " != " + plain.sequence);
    check(trace.env.stepAllCalls > 0 && trace.env.stepCalls > 0,
          tag + "decorators saw no env calls");
    check(trace.epochS.size() == static_cast<std::size_t>(plain.epochs),
          tag + "one traced epoch span per epoch");
    std::printf("%s steps_to_discovery=%lld epochs=%d accuracy=%.17g "
                "sequence=%s\n",
                cell.name.c_str(), plain.stepsToDiscovery, plain.epochs,
                plain.finalAccuracy, plain.sequence.c_str());
}

} // namespace

int
main()
{
    const std::string shape = R"(
num_sets = 1
num_ways = 2
attack_addr_s = 0
attack_addr_e = 2
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 10
seed = 7
ppo_seed = 7000042
steps_per_epoch = 600
minibatch_size = 100
max_epochs = 120
target_accuracy = 0.9
eval_episodes = 100
)";
    // One unmasked and one masked cell: masking changes which stream
    // calls the trainer makes (actionMask through the decorator).
    checkCell(ttdbench::makeCell("l1l2_private/ppo",
                                 shape + "scenario = l1l2_private\n"));
    checkCell(ttdbench::makeCell("guessing_game/ppo_masked", shape + R"(
mask_actions = true
mask_useless_actions = true
useless_action_penalty = 0.02
)"));
    if (failures == 0)
        std::printf("test_decorators: OK\n");
    return failures == 0 ? 0 : 1;
}
