#include "serve/net/transport.hpp"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "serve/wire.hpp"
#include "util/atomic_file.hpp"
#include "util/logging.hpp"

namespace autocat {

namespace {

constexpr int kConnectTimeoutMs = 5000;

/** The descriptor a local child finds its end of the socketpair on. */
constexpr int kChildFd = 3;

/** How long a local child that closed its stream (or sent its row) may
 *  take to exit on its own before it is SIGKILLed. */
constexpr auto kExitGrace = std::chrono::seconds(2);

/** Describe how a reaped worker ended, for retry/error messages. */
std::string
describeExit(int status)
{
    if (WIFSIGNALED(status))
        return std::string("killed by signal ") +
               std::to_string(WTERMSIG(status));
    if (WIFEXITED(status))
        return "exit code " + std::to_string(WEXITSTATUS(status));
    return "unknown wait status " + std::to_string(status);
}

AttemptOutcome
died(std::string reason, bool consumes_attempt = true)
{
    AttemptOutcome out;
    out.kind = AttemptOutcome::Kind::Died;
    out.reason = std::move(reason);
    out.consumesAttempt = consumes_attempt;
    return out;
}

} // namespace

RunnerTransport::RunnerTransport(std::string name, TcpEndpoint endpoint,
                                 std::string daemon_path)
    : name_(std::move(name)), endpoint_(std::move(endpoint)),
      daemonPath_(std::move(daemon_path))
{
    ignoreSigpipe();
}

std::unique_ptr<RunnerTransport>
RunnerTransport::tcp(const std::string &endpoint)
{
    const TcpEndpoint parsed = parseTcpEndpoint(endpoint);
    return std::unique_ptr<RunnerTransport>(
        new RunnerTransport("tcp:" + parsed.toString(), parsed, ""));
}

std::unique_ptr<RunnerTransport>
RunnerTransport::local(std::string daemon_path, int slot)
{
    return std::unique_ptr<RunnerTransport>(new RunnerTransport(
        "local[" + std::to_string(slot) + "]", TcpEndpoint{},
        std::move(daemon_path)));
}

void
RunnerTransport::spawn(const AttemptSpec &spec)
{
    std::vector<std::string> args = {daemonPath_, "--fd",
                                     std::to_string(kChildFd),
                                     "--work-dir", spec.workDir};
    args.insert(args.end(), spec.chaosFlags.begin(),
                spec.chaosFlags.end());
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    // Both ends close on exec, so no child (this one or a later
    // sibling) holds a copy of an end it was not given: a stray copy
    // keeps the stream open after its owner dies or closes it, and the
    // death never arrives as EOF.
    int ends[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0)
        throw std::runtime_error(std::string("dist sweep: socketpair: ") +
                                 std::strerror(errno));
    OwnedFd mine(ends[0]);
    OwnedFd theirs(ends[1]);

    const pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error(std::string("dist sweep: fork: ") +
                                 std::strerror(errno));
    if (pid == 0) {
        // dup2 clears close-on-exec on the copy, but is a no-op when
        // the end already sits on kChildFd.
        if (theirs.fd() == kChildFd)
            ::fcntl(kChildFd, F_SETFD, 0);
        else
            ::dup2(theirs.fd(), kChildFd);
        ::execv(argv[0], argv.data());
        ::_exit(127); // the parent sees EOF before any Hello
    }
    pid_ = pid;
    fd_ = std::move(mine);
}

int
RunnerTransport::reap(bool graceful)
{
    int status = 0;
    const auto deadline = Clock::now() + kExitGrace;
    if (graceful) {
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (Clock::now() >= deadline) {
                graceful = false;
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    if (!graceful) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return status;
}

bool
RunnerTransport::start(const AttemptSpec &spec)
{
    if (daemonPath_.empty()) {
        bool refused = false;
        fd_ = tcpConnect(endpoint_, kConnectTimeoutMs, refused);
        if (!fd_.valid()) {
            retire(refused ? "connection refused"
                           : std::string("connect failed: ") +
                                 std::strerror(errno));
            return false;
        }
    } else {
        spawn(spec);
    }

    HelloPayload hello;
    hello.protocolVersion = kNetProtocolVersion;
    hello.jobWireVersion = kCellJobVersion;
    hello.rowWireVersion = kCellRowVersion;
    hello.checkpointEvery =
        spec.checkpointPath.empty() ? -1 : spec.checkpointEvery;

    // Hello, then the previous attempt's uploaded checkpoint (so a
    // retry resumes even on a different machine), then the job.
    std::string wire = encodeFrame(FrameType::Hello, encodeHello(hello));
    if (!spec.checkpointPath.empty() &&
        std::filesystem::exists(spec.checkpointPath)) {
        wire += encodeFrame(
            FrameType::Checkpoint,
            readWholeFile(spec.checkpointPath, "cell checkpoint"));
    }
    wire += encodeFrame(FrameType::Job,
                        readWholeFile(spec.jobPath, "cell job"));
    if (!sendAll(fd_.fd(), wire.data(), wire.size())) {
        fd_.reset();
        if (pid_ > 0)
            retire("worker died during job upload (" +
                   describeExit(reap(false)) + ")");
        else
            retire("dropped the connection during job upload");
        return false;
    }

    setNonBlocking(fd_.fd());
    reader_ = FrameReader{};
    checkpointPath_ = spec.checkpointPath;
    handshaken_ = false;
    timedOut_ = false;
    busy_ = true;
    lastActivity_ = Clock::now();
    return true;
}

AttemptOutcome
RunnerTransport::poll()
{
    AttemptOutcome out;
    if (timedOut_)
        return finish(died("timed out (stale heartbeat)"));

    bool eof = false;
    std::string sockError;
    char buf[64 * 1024];
    for (;;) {
        const long n = recvSome(fd_.fd(), buf, sizeof(buf));
        if (n > 0) {
            reader_.feed(buf, static_cast<std::size_t>(n));
            lastActivity_ = Clock::now();
            continue;
        }
        if (n == 0) {
            eof = true;
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
            // drained for now
        } else {
            sockError = std::strerror(errno);
        }
        break;
    }

    Frame frame;
    while (reader_.next(frame)) {
        if (!handshaken_ && frame.type != FrameType::Hello) {
            // A worker that skips the handshake is the wrong build or
            // the wrong service; do not burn cell retries on it.
            retire("spoke before the handshake");
            return finish(
                died("worker skipped the handshake; slot retired",
                     false));
        }
        switch (frame.type) {
        case FrameType::Hello: {
            HelloPayload hello;
            try {
                hello = decodeHello(frame.payload);
            } catch (const std::exception &e) {
                retire(std::string("malformed hello: ") + e.what());
                return finish(died(
                    "worker sent a malformed hello; slot retired",
                    false));
            }
            if (hello.protocolVersion != kNetProtocolVersion ||
                hello.jobWireVersion != kCellJobVersion ||
                hello.rowWireVersion != kCellRowVersion) {
                retire("version mismatch (daemon proto " +
                       std::to_string(hello.protocolVersion) + ", job v" +
                       std::to_string(hello.jobWireVersion) + ", row v" +
                       std::to_string(hello.rowWireVersion) + ")");
                return finish(
                    died("worker version mismatch; slot retired", false));
            }
            handshaken_ = true;
            break;
        }
        case FrameType::Heartbeat:
            break; // liveness is any received byte; nothing to do
        case FrameType::Checkpoint:
            // The scheduler's disk is the checkpoint's durable home:
            // land each upload atomically where a retry (on any slot)
            // will look for it.
            if (!checkpointPath_.empty())
                atomicWriteFile(checkpointPath_, frame.payload,
                                "cell checkpoint");
            break;
        case FrameType::Row:
            out.kind = AttemptOutcome::Kind::Row;
            out.rowBytes = std::move(frame.payload);
            return finish(std::move(out));
        case FrameType::Job:
            return finish(died("sent an unexpected frame (job)"));
        }
    }

    if (!reader_.error().empty()) {
        if (!handshaken_) {
            retire("malformed handshake (" + reader_.error() + ")");
            return finish(died(
                "worker handshake was malformed; slot retired", false));
        }
        return finish(
            died("sent a malformed frame (" + reader_.error() + ")"));
    }
    if (eof || !sockError.empty()) {
        std::string what = eof ? "closed the connection mid-cell"
                               : "connection error (" + sockError + ")";
        if (pid_ > 0) {
            fd_.reset();
            what = "died (" + describeExit(reap(true)) + ")";
        }
        if (!handshaken_) {
            retire(what);
            return finish(died("worker " + what +
                                   " before the handshake; slot retired",
                               false));
        }
        return finish(died(what));
    }
    return out; // Running
}

double
RunnerTransport::idleSeconds() const
{
    return std::chrono::duration<double>(Clock::now() - lastActivity_)
        .count();
}

void
RunnerTransport::abandon()
{
    fd_.reset();
    if (pid_ > 0)
        reap(false); // no zombies behind a stop injection
    busy_ = false;
}

AttemptOutcome
RunnerTransport::finish(AttemptOutcome out)
{
    fd_.reset();
    // A child that delivered its row is on its way out; any other
    // child is ended here.
    if (pid_ > 0)
        reap(out.kind == AttemptOutcome::Kind::Row);
    busy_ = false;
    return out;
}

void
RunnerTransport::retire(const std::string &why)
{
    alive_ = false;
    AUTOCAT_LOG_WARN << "dist sweep: retiring " << name_ << ": " << why;
}

} // namespace autocat
