/**
 * @file
 * RunnerTransport: the seam between the sweep scheduler and *where a
 * cell attempt physically runs*. The scheduler owns a fleet of
 * transports — each one worker slot — and speaks one vocabulary to
 * all of them: start an attempt, poll for its outcome, kill it when
 * it stops showing life.
 *
 * Every slot talks to the one worker executable, runner_daemon, over
 * the one frame session (serve/net/frame.hpp): handshake Hello
 * (protocol + job/row wire versions), ship the job blob (and the last
 * uploaded checkpoint, so a retry resumes from the previous attempt's
 * progress on any slot), then consume Heartbeat/Checkpoint/Row frames
 * until the row lands or the stream dies. Checkpoint uploads are
 * written (atomically) to the cell's scheduler-side checkpoint path —
 * the scheduler's disk is the durable home; workers are disposable.
 * Liveness is any received frame. Slots differ only in where the
 * stream comes from and how an attempt is ended:
 *
 *  - tcp(): connect to a runner_daemon endpoint, one connection per
 *    attempt; kill/abandon close the connection.
 *  - local(): spawn `runner_daemon --fd 3 --work-dir <grid workDir>
 *    [chaos flags]` per attempt over a socketpair; kill/abandon
 *    SIGKILL and reap the child, and a child that dies reports its
 *    reaped status ("died (killed by signal 9)").
 *
 * Failure vocabulary:
 *
 *  - Outcome::Row — the attempt produced row-blob bytes; the
 *    scheduler validates them (checksum, version, index).
 *  - Outcome::Died with consumesAttempt=true — the attempt was
 *    running and was lost (worker death, connection drop, malformed
 *    frame, stale heartbeat). Costs one retry.
 *  - start() returning false, or Died with consumesAttempt=false —
 *    the attempt never got past the handshake (unreachable endpoint,
 *    version-mismatched daemon, a child that died before its Hello).
 *    The slot retires itself (alive() goes false) and the cell
 *    requeues without burning its budget: a dead machine or a broken
 *    worker binary must not eat a cell's retries.
 */

#ifndef AUTOCAT_SERVE_NET_TRANSPORT_HPP
#define AUTOCAT_SERVE_NET_TRANSPORT_HPP

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "serve/net/frame.hpp"
#include "util/socket.hpp"

namespace autocat {

/** Everything one attempt needs, resolved by the scheduler. */
struct AttemptSpec
{
    std::string jobPath;        ///< staged job blob
    std::string workDir;        ///< local child's --work-dir
    std::string checkpointPath; ///< scheduler-side ckpt; "" = disabled
    int checkpointEvery = 0;    ///< cadence when checkpointing is on

    /** Extra runner_daemon flags for a local child (fault injection;
     *  TCP daemons carry their own on their command line). */
    std::vector<std::string> chaosFlags;
};

/** Result of polling a busy transport. */
struct AttemptOutcome
{
    enum class Kind
    {
        Running, ///< still working
        Row,     ///< rowBytes holds the attempt's row blob
        Died,    ///< reason says why; consumesAttempt says who pays
    };

    Kind kind = Kind::Running;
    std::string rowBytes;
    std::string reason;
    bool consumesAttempt = true;
};

/** One worker slot the scheduler can run attempts on. */
class RunnerTransport
{
  public:
    /** Slot for the runner_daemon at @p endpoint ("host:port"; parsed
     *  eagerly — throws std::invalid_argument when malformed). */
    static std::unique_ptr<RunnerTransport>
    tcp(const std::string &endpoint);

    /** Local slot number @p slot spawning the runner_daemon at
     *  @p daemon_path once per attempt. */
    static std::unique_ptr<RunnerTransport>
    local(std::string daemon_path, int slot);

    ~RunnerTransport() { abandon(); }
    RunnerTransport(const RunnerTransport &) = delete;
    RunnerTransport &operator=(const RunnerTransport &) = delete;

    /** Stable display name ("local[2]", "tcp:127.0.0.1:4417"). */
    const std::string &name() const { return name_; }

    /** False once permanently retired. */
    bool alive() const { return alive_; }

    /** True while an attempt is in flight. */
    bool busy() const { return busy_; }

    /**
     * Begin an attempt. Returns false when it could not start — the
     * slot has retired itself and the caller requeues the cell
     * without consuming an attempt. Must only be called when idle.
     */
    bool start(const AttemptSpec &spec);

    /** Non-blocking progress check; only meaningful while busy. A
     *  terminal outcome (Row/Died) frees the slot. */
    AttemptOutcome poll();

    /** End the in-flight attempt (stale heartbeat). The next poll()
     *  reports the death as "timed out (stale heartbeat)". */
    void kill() { timedOut_ = true; }

    /** Seconds since the attempt last showed life (start or any
     *  received frame). */
    double idleSeconds() const;

    /** Scheduler is going down mid-run (stop injection): drop the
     *  stream and reap a local child without reporting an outcome. */
    void abandon();

  private:
    using Clock = std::chrono::steady_clock;

    RunnerTransport(std::string name, TcpEndpoint endpoint,
                    std::string daemon_path);

    void spawn(const AttemptSpec &spec);
    int reap(bool graceful);
    AttemptOutcome finish(AttemptOutcome out);
    void retire(const std::string &why);

    std::string name_;
    TcpEndpoint endpoint_;   ///< tcp slots
    std::string daemonPath_; ///< local slots; empty for tcp
    pid_t pid_ = -1;         ///< local child of the attempt in flight
    bool alive_ = true;
    bool busy_ = false;
    bool handshaken_ = false;
    bool timedOut_ = false;
    OwnedFd fd_;
    FrameReader reader_;
    std::string checkpointPath_;
    Clock::time_point lastActivity_{};
};

} // namespace autocat

#endif // AUTOCAT_SERVE_NET_TRANSPORT_HPP
