/**
 * @file
 * Reference work that tells how fast the host runs at a moment.
 *
 * On a shared host, co-tenants slow this process in speed states that
 * last from seconds to minutes, often a whole run: the same epoch runs
 * 30-40% slower, CPU time stretched as much as wall time. No statistic
 * over one run's epochs can discount a state that covers the run. The
 * discovery workloads therefore time fixed reference work right before
 * and after every epoch, and rescale the epoch to the speed the
 * reference shows around it (README.md, "Host-speed normalization").
 *
 * User and system time slow down differently, so there are two
 * references. User time is rescaled by one training step of a small
 * two-layer tanh network at the workload's minibatch x hidden shape
 * (register-tiled AVX2 matmuls forward and backward, transposes, an
 * Adam-style update with a zero step size so every call does the same
 * work); its mix of matmul, transcendental and streaming work slows
 * down as the learner does, where a bare matmul loop slowed up to
 * twice as much. System time, which in these workloads is almost all
 * zero-fill page faults from the learner's allocations, is rescaled by
 * a loop that maps, touches and unmaps anonymous pages.
 *
 * Both are the benchmark's own code, not the program's: a faster
 * learner, or one that faults less, shows in the epoch times and not
 * in the references.
 */

#ifndef TTDBENCH_SPEED_REF_HPP
#define TTDBENCH_SPEED_REF_HPP

#include <cstddef>
#include <vector>

namespace ttdbench {

/** Wall, user and system seconds of one stretch of work. */
struct WorkTimes
{
    double wallS = 0.0;
    double userS = 0.0;
    double sysS = 0.0;
};

/** One sample of the references: the fastest of three calls each. */
struct HostSpeed
{
    double stepS = 0.0;   ///< one reference training step
    double faultS = 0.0;  ///< kFaultPages page faults
};

class SpeedRef
{
  public:
    /** The speeds normalized times are scaled to: about the references'
     *  speed on an idle core of the host the baseline ran on (the step
     *  at 500 rows), so normalized times read close to wall time there. */
    static constexpr double kRefFlopsPerS = 36e9;
    static constexpr double kRefFaultS = 1.1e-6;
    static constexpr int kFaultPages = 256;

    /** References for @p rows x @p n activations and n x n weights
     *  (rows rounded up to a multiple of 4, n to a multiple of 16). */
    SpeedRef(std::size_t rows, std::size_t n);

    /** Time both references now. */
    HostSpeed sample();

    /** Seconds one step takes at kRefFlopsPerS. */
    double refStepS() const { return flops_ / kRefFlopsPerS; }

  private:
    void step();

    std::size_t m_;
    std::size_t n_;
    double flops_;
    /** The step's matrices: seven m x n, then nine n x n. */
    std::vector<float> mem_;
};

/**
 * @p work rescaled to the reference speeds: user time by the step,
 * system time by the fault loop, each against the mean of the samples
 * taken just before and just after the work; the rest of the wall time
 * (waiting) as it is. @p ref_step_s is SpeedRef::refStepS().
 */
WorkTimes normalized(const WorkTimes &work, const HostSpeed &before,
                     const HostSpeed &after, double ref_step_s);

/** The step throughput (FLOP/s) a sample shows. */
inline double
stepFlopsPerS(const HostSpeed &s, double ref_step_s)
{
    return SpeedRef::kRefFlopsPerS * ref_step_s / s.stepS;
}

/** The seconds per page fault a sample shows. */
inline double
faultSeconds(const HostSpeed &s)
{
    return s.faultS / SpeedRef::kFaultPages;
}

} // namespace ttdbench

#endif // TTDBENCH_SPEED_REF_HPP
