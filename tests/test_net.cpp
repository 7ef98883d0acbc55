/**
 * @file
 * Networked campaign service tests: the ACNF frame layer (round
 * trips, partial reads, fuzzing truncation/corruption), the
 * crash-safe grid manifest (re-entry, identity keying, recovery from
 * torn state), graceful SIGTERM in the worker, and the full
 * daemon-fleet scheduler — all pinned against the byte-identity
 * oracle: a grid sharded across 3 TCP runner daemons, with one daemon
 * SIGKILLed mid-cell AND the scheduler itself killed and restarted
 * from the manifest, must render the exact same report as `workers=1`
 * in-process.
 *
 * Fleet tests spawn the real runner_daemon executable, whose path the
 * build compiles in (AUTOCAT_TEST_RUNNER_DAEMON).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "eval/report.hpp"
#include "eval/sweep.hpp"
#include "eval/sweep_config.hpp"
#include "serve/cell_exec.hpp"
#include "serve/dist_scheduler.hpp"
#include "serve/gateway/campaign_gateway.hpp"
#include "serve/manifest/manifest.hpp"
#include "serve/net/frame.hpp"
#include "serve/wire.hpp"
#include "util/atomic_file.hpp"
#include "util/binio.hpp"
#include "util/socket.hpp"

namespace autocat {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory under the system temp root. */
fs::path
scratchDir(const std::string &name)
{
    const fs::path dir = fs::temp_directory_path() /
                         ("autocat_net_" + name + "_" +
                          std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Same tiny 4-cell grid test_dist pins its oracle on. */
SweepConfig
tinyNetSweep()
{
    SweepConfig cfg;
    cfg.name = "tiny-net";
    cfg.base.env.cache.numSets = 1;
    cfg.base.env.cache.numWays = 2;
    cfg.base.env.cache.addressSpaceSize = 6;
    cfg.base.env.attackAddrS = 0;
    cfg.base.env.attackAddrE = 2;
    cfg.base.env.victimAddrS = 0;
    cfg.base.env.victimAddrE = 0;
    cfg.base.env.victimNoAccessEnable = true;
    cfg.base.env.windowSize = 8;
    cfg.base.ppo.stepsPerEpoch = 200;
    cfg.base.ppo.minibatchSize = 100;
    cfg.base.maxEpochs = 2;
    cfg.base.evalEpisodes = 5;
    cfg.grid.scenarios = {"guessing_game", "l1l2_private"};
    cfg.grid.policies = {ReplPolicy::Lru, ReplPolicy::TreePlru};
    cfg.grid.seeds = {5};
    return cfg;
}

const std::string kDaemon = AUTOCAT_TEST_RUNNER_DAEMON;

/**
 * This process's environment ("NAME=value" entries) with
 * AUTOCAT_MAT_PORTABLE=1 when @p portable, and without it otherwise.
 */
std::vector<std::string>
matBackendEnv(bool portable)
{
    const char *const key = "AUTOCAT_MAT_PORTABLE=";
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, key, std::strlen(key)) != 0)
            env.emplace_back(*e);
    if (portable)
        env.push_back(std::string(key) + "1");
    return env;
}

/** Pointers to @p strings, null-terminated, for exec. */
std::vector<char *>
execVector(std::vector<std::string> &strings)
{
    std::vector<char *> out;
    for (std::string &str : strings)
        out.push_back(str.data());
    out.push_back(nullptr);
    return out;
}

/**
 * fork/exec a child with argv @p args and, when given, environment
 * @p env (else this process's); returns its pid.
 */
pid_t
spawnChild(const std::vector<std::string> &args,
           const std::vector<std::string> *env = nullptr)
{
    std::vector<std::string> owned = args;
    std::vector<std::string> owned_env;
    if (env)
        owned_env = *env;
    const std::vector<char *> argv = execVector(owned);
    const std::vector<char *> envp = execVector(owned_env);
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execve(argv[0], argv.data(), env ? envp.data() : environ);
        ::_exit(127);
    }
    return pid;
}

/** One spawned runner_daemon plus its discovered ephemeral port. */
struct DaemonProc
{
    pid_t pid = -1;
    std::uint16_t port = 0;

    std::string
    endpoint() const
    {
        return "127.0.0.1:" + std::to_string(port);
    }
};

/**
 * Spawn a daemon on an ephemeral port (in environment @p env, when
 * given) and wait for the port file.
 */
DaemonProc
spawnDaemon(const fs::path &root, const std::string &name,
            const std::vector<std::string> &extra_args = {},
            const std::vector<std::string> *env = nullptr)
{
    const std::string port_file = (root / (name + ".port")).string();
    std::vector<std::string> args = {
        kDaemon,       "--port",      "0",
        "--port-file", port_file,    "--work-dir",
        (root / name).string(),
    };
    args.insert(args.end(), extra_args.begin(), extra_args.end());

    DaemonProc daemon;
    daemon.pid = spawnChild(args, env);
    for (int i = 0; i < 1000 && !fs::exists(port_file); ++i)
        ::usleep(10 * 1000);
    if (!fs::exists(port_file))
        throw std::runtime_error("daemon never published its port");
    daemon.port = static_cast<std::uint16_t>(
        std::stoi(readWholeFile(port_file, "port file")));
    return daemon;
}

void
reapDaemon(DaemonProc &daemon, int sig = SIGKILL)
{
    if (daemon.pid <= 0)
        return;
    ::kill(daemon.pid, sig);
    int status = 0;
    ::waitpid(daemon.pid, &status, 0);
    daemon.pid = -1;
}

// -------------------------------------------------------------- frames

TEST(NetFrame, RoundTripsEveryTypeThroughChunkedFeeds)
{
    const std::string binary_payload("\x00\x01\xff""frame\n\x07", 9);
    std::string stream;
    stream += encodeFrame(FrameType::Hello, "hello-bytes");
    stream += encodeFrame(FrameType::Job, binary_payload);
    stream += encodeFrame(FrameType::Heartbeat, "");
    stream += encodeFrame(FrameType::Checkpoint,
                          std::string(10000, 'c'));
    stream += encodeFrame(FrameType::Row, "row");

    // Partial read() returns are the TCP norm: every chunking of the
    // same stream must yield the same frames.
    for (const std::size_t chunk : {1ul, 2ul, 3ul, 7ul, 4096ul}) {
        FrameReader reader;
        std::vector<Frame> frames;
        for (std::size_t off = 0; off < stream.size(); off += chunk) {
            reader.feed(stream.data() + off,
                        std::min(chunk, stream.size() - off));
            Frame f;
            while (reader.next(f))
                frames.push_back(f);
        }
        ASSERT_EQ(frames.size(), 5u) << "chunk " << chunk;
        EXPECT_TRUE(reader.error().empty());
        EXPECT_EQ(reader.buffered(), 0u);
        EXPECT_EQ(frames[0].type, FrameType::Hello);
        EXPECT_EQ(frames[0].payload, "hello-bytes");
        EXPECT_EQ(frames[1].type, FrameType::Job);
        EXPECT_EQ(frames[1].payload, binary_payload);
        EXPECT_EQ(frames[2].type, FrameType::Heartbeat);
        EXPECT_TRUE(frames[2].payload.empty());
        EXPECT_EQ(frames[3].payload.size(), 10000u);
        EXPECT_EQ(frames[4].type, FrameType::Row);
    }
}

TEST(NetFrame, HelloPayloadRoundTrips)
{
    HelloPayload hello;
    hello.protocolVersion = 1;
    hello.jobWireVersion = kCellJobVersion;
    hello.rowWireVersion = kCellRowVersion;
    hello.checkpointEvery = 3;
    const HelloPayload back = decodeHello(encodeHello(hello));
    EXPECT_EQ(back.protocolVersion, 1u);
    EXPECT_EQ(back.jobWireVersion, kCellJobVersion);
    EXPECT_EQ(back.rowWireVersion, kCellRowVersion);
    EXPECT_EQ(back.checkpointEvery, 3);
    EXPECT_THROW(decodeHello("short"), std::runtime_error);
    EXPECT_THROW(decodeHello(encodeHello(hello) + "x"),
                 std::runtime_error);
}

TEST(NetFrame, FuzzTruncationNeverYieldsAPhantomFrame)
{
    std::string stream;
    stream += encodeFrame(FrameType::Job, "abcdefg");
    stream += encodeFrame(FrameType::Row, "0123456789");

    // Every prefix decodes at most the frames whose bytes are fully
    // present, never errors, never fabricates.
    const std::size_t first_total = encodeFrame(FrameType::Job,
                                                "abcdefg")
                                        .size();
    for (std::size_t len = 0; len < stream.size(); ++len) {
        FrameReader reader;
        reader.feed(stream.data(), len);
        Frame f;
        std::size_t got = 0;
        while (reader.next(f))
            ++got;
        EXPECT_TRUE(reader.error().empty()) << "len " << len;
        EXPECT_EQ(got, len >= first_total ? 1u : 0u) << "len " << len;
    }
}

TEST(NetFrame, FuzzEveryCorruptByteIsRejectedNotCrashed)
{
    const std::string stream = encodeFrame(FrameType::Job, "payload!");
    for (std::size_t i = 0; i < stream.size(); ++i) {
        std::string bad = stream;
        bad[i] = static_cast<char>(bad[i] ^ 0x20);
        FrameReader reader;
        reader.feed(bad.data(), bad.size());
        Frame f;
        // No flip may ever yield a frame: every byte is covered by
        // magic, type range, size bound, or the payload checksum.
        ASSERT_FALSE(reader.next(f)) << "corrupt byte " << i;
        const bool in_size_field = i >= 8 && i < 16;
        if (!in_size_field) {
            EXPECT_FALSE(reader.error().empty()) << "byte " << i;
            // Sticky: feeding good bytes must not revive the stream
            // (frame boundaries are unrecoverable).
            reader.feed(stream.data(), stream.size());
            EXPECT_FALSE(reader.next(f));
        } else if (reader.error().empty()) {
            // A flipped length byte that stays under the cap leaves
            // the reader waiting for payload that never arrives; the
            // connection owner sees EOF mid-frame and treats it as a
            // death. The reader must be starving, not mis-framing.
            EXPECT_EQ(reader.buffered(), bad.size());
        }
    }
}

TEST(NetFrame, ImplausibleSizeFailsFastWithoutThePayload)
{
    // A corrupt length field must fail on the HEADER, not stall the
    // connection waiting for garbage bytes that never arrive.
    std::string header;
    binPut(header, 0x464e4341u); // 'ACNF'
    binPut(header, static_cast<std::uint32_t>(FrameType::Job));
    binPut(header, kMaxFramePayload + 1);
    FrameReader reader;
    reader.feed(header.data(), header.size());
    Frame f;
    EXPECT_FALSE(reader.next(f));
    EXPECT_NE(reader.error().find("implausible"), std::string::npos)
        << reader.error();

    // Unknown type and bad magic fail the same fast way.
    FrameReader r2;
    std::string bad_type;
    binPut(bad_type, 0x464e4341u);
    binPut(bad_type, 99u);
    binPut(bad_type, std::uint64_t{0});
    r2.feed(bad_type.data(), bad_type.size());
    EXPECT_FALSE(r2.next(f));
    EXPECT_NE(r2.error().find("unknown frame type"), std::string::npos);

    FrameReader r3;
    const std::string junk = "this is not a frame stream at all";
    r3.feed(junk.data(), junk.size());
    EXPECT_FALSE(r3.next(f));
    EXPECT_NE(r3.error().find("bad magic"), std::string::npos);
}

// ------------------------------------------------------------ manifest

TEST(GridManifest, RecordReenterAdoptsVerbatimRows)
{
    const fs::path root = scratchDir("manifest_reenter");
    const std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    std::vector<std::string> jobs;
    for (const SweepCell &cell : cells)
        jobs.push_back(serializeCellJob(cell));
    const std::uint64_t hash = gridManifestHash(jobs);

    SweepCellResult row;
    row.cell = cells[1];
    row.completed = true;
    row.result.converged = true;
    const std::string row_bytes = serializeCellRow(row);

    {
        GridManifest manifest((root / "m").string(), "tiny-net", hash,
                              cells.size(), false);
        EXPECT_EQ(manifest.numDone(), 0u);
        manifest.recordRow(1, row_bytes);
        manifest.recordFailedAttempt(3);
        manifest.recordFailedAttempt(3);
    }
    // A fresh process re-enters: the finished cell adopts (bytes
    // verbatim on disk), the failed-attempt budget persists.
    GridManifest manifest((root / "m").string(), "tiny-net", hash,
                          cells.size(), false);
    EXPECT_EQ(manifest.numDone(), 1u);
    EXPECT_TRUE(manifest.cells()[1].done);
    EXPECT_TRUE(manifest.cells()[1].row.completed);
    EXPECT_EQ(manifest.cells()[1].row.cell.index, 1u);
    EXPECT_EQ(readWholeFile(manifest.rowPath(1), "row"), row_bytes);
    EXPECT_EQ(manifest.cells()[3].failedAttempts, 2);
    EXPECT_FALSE(manifest.cells()[3].done);
    fs::remove_all(root);
}

TEST(GridManifest, RefusesAForeignGridUnlessReset)
{
    const fs::path root = scratchDir("manifest_foreign");
    const std::string dir = (root / "m").string();
    {
        GridManifest manifest(dir, "grid-a", 111, 4, false);
        SweepCellResult row;
        row.cell.index = 0;
        manifest.recordRow(0, serializeCellRow(row));
    }
    // Different grid hash: refuse (silent mixing of two experiments'
    // rows is the failure mode this guards).
    EXPECT_THROW(GridManifest(dir, "grid-b", 222, 4, false),
                 std::invalid_argument);
    // Different cell count, same refusal.
    EXPECT_THROW(GridManifest(dir, "grid-a", 111, 5, false),
                 std::invalid_argument);
    // reset wipes and starts fresh.
    GridManifest manifest(dir, "grid-b", 222, 4, true);
    EXPECT_EQ(manifest.numDone(), 0u);
    EXPECT_FALSE(fs::exists(manifest.rowPath(0)));
    fs::remove_all(root);
}

TEST(GridManifest, TornStateAndCorruptRowsDemoteNotCrash)
{
    const fs::path root = scratchDir("manifest_torn");
    const std::string dir = (root / "m").string();
    SweepCellResult row;
    row.cell.index = 2;
    const std::string row_bytes = serializeCellRow(row);
    {
        GridManifest manifest(dir, "g", 7, 4, false);
        manifest.recordRow(2, row_bytes);
    }
    // Corrupt the row blob: its cell must demote to pending on
    // re-entry (and the bad file must be cleared), not crash or adopt.
    atomicWriteFile(dir + "/row_2.blob", "garbage", "row");
    {
        GridManifest manifest(dir, "g", 7, 4, false);
        EXPECT_EQ(manifest.numDone(), 0u);
        EXPECT_FALSE(fs::exists(dir + "/row_2.blob"));
        manifest.recordRow(2, row_bytes);
    }
    // Torn state file: progress is discarded (rows cannot be trusted
    // without a grid identity), the manifest starts fresh.
    atomicWriteFile(dir + "/manifest.state", "half-writ", "state");
    GridManifest manifest(dir, "g", 7, 4, false);
    EXPECT_EQ(manifest.numDone(), 0u);
    fs::remove_all(root);
}

TEST(GridManifest, RowBlobAloneMarksDone)
{
    // Crash ordering contract: the row is written before the state.
    // A manifest whose state never recorded the row must still adopt
    // it (the row blob is authoritative).
    const fs::path root = scratchDir("manifest_roworder");
    const std::string dir = (root / "m").string();
    SweepCellResult row;
    row.cell.index = 1;
    {
        GridManifest manifest(dir, "g", 9, 3, false);
        // Simulate the crash window: row on disk, state not updated.
        atomicWriteFile(dir + "/row_1.blob", serializeCellRow(row),
                        "row");
    }
    GridManifest manifest(dir, "g", 9, 3, false);
    EXPECT_EQ(manifest.numDone(), 1u);
    EXPECT_TRUE(manifest.cells()[1].done);
    fs::remove_all(root);
}

// ------------------------------------------------------- config keys

TEST(NetConfig, NewKeysRoundTripAndValidate)
{
    SweepConfig cfg = tinyNetSweep();
    cfg.distEndpoints = {"127.0.0.1:7001", "localhost:7002"};
    cfg.manifestDir = "state/manifest";
    cfg.manifestReset = true;
    cfg.gatewayTenant = "alice";
    cfg.gatewayPriority = 7;

    const SweepConfig back = parseSweepConfig(renderSweepConfig(cfg));
    ASSERT_EQ(back.distEndpoints.size(), 2u);
    EXPECT_EQ(back.distEndpoints[0], "127.0.0.1:7001");
    EXPECT_EQ(back.distEndpoints[1], "localhost:7002");
    EXPECT_EQ(back.manifestDir, "state/manifest");
    EXPECT_TRUE(back.manifestReset);
    EXPECT_EQ(back.gatewayTenant, "alice");
    EXPECT_EQ(back.gatewayPriority, 7);
    // Render->parse->render is a fixed point for the new keys too.
    EXPECT_EQ(renderSweepConfig(back), renderSweepConfig(cfg));

    // Endpoints are validated at parse time, not first connect.
    EXPECT_THROW(parseSweepConfig(std::string(
                     "sweep.dist_endpoints = not-an-endpoint\n")),
                 std::invalid_argument);
    EXPECT_THROW(parseSweepConfig(std::string(
                     "sweep.dist_endpoints = 127.0.0.1:99999\n")),
                 std::invalid_argument);
    // stopAfterCells is CLI-only, never a config key.
    EXPECT_THROW(
        parseSweepConfig(std::string("sweep.stop_after_cells = 1\n")),
        std::invalid_argument);
}

TEST(NetConfig, EndpointParsing)
{
    const TcpEndpoint e = parseTcpEndpoint("127.0.0.1:4417");
    EXPECT_EQ(e.host, "127.0.0.1");
    EXPECT_EQ(e.port, 4417);
    EXPECT_EQ(e.toString(), "127.0.0.1:4417");
    EXPECT_EQ(parseTcpEndpoint("localhost:1").host, "localhost");
    EXPECT_THROW(parseTcpEndpoint("no-colon"), std::invalid_argument);
    EXPECT_THROW(parseTcpEndpoint("h:"), std::invalid_argument);
    EXPECT_THROW(parseTcpEndpoint(":80"), std::invalid_argument);
    EXPECT_THROW(parseTcpEndpoint("h:0x50"), std::invalid_argument);
    EXPECT_THROW(parseTcpEndpoint("h:70000"), std::invalid_argument);
}

// ------------------------------------------------- graceful SIGTERM

/** What one hand-driven `runner_daemon --fd N` session produced. */
struct FdSession
{
    int status = 0;         ///< the child's wait status
    std::string checkpoint; ///< last Checkpoint upload ("" = none)
    std::string row;        ///< Row payload ("" = none)
};

/**
 * Spawn `runner_daemon --fd N @p extra_args` on one end of a
 * socketpair, send Hello(checkpoint every epoch) [Checkpoint] Job,
 * collect every frame until the child closes its end, and reap it.
 */
FdSession
runFdSession(const std::string &job, const std::string &checkpoint,
             const std::vector<std::string> &extra_args)
{
    int ends[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, ends), 0);
    ::fcntl(ends[0], F_SETFD, FD_CLOEXEC); // only the child's end leaks
    OwnedFd mine(ends[0]);
    std::vector<std::string> args = {kDaemon, "--fd",
                                     std::to_string(ends[1])};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    const pid_t pid = spawnChild(args);
    ::close(ends[1]);

    HelloPayload hello;
    hello.jobWireVersion = kCellJobVersion;
    hello.rowWireVersion = kCellRowVersion;
    hello.checkpointEvery = 1;
    std::string wire = encodeFrame(FrameType::Hello, encodeHello(hello));
    if (!checkpoint.empty())
        wire += encodeFrame(FrameType::Checkpoint, checkpoint);
    wire += encodeFrame(FrameType::Job, job);
    EXPECT_TRUE(sendAll(mine.fd(), wire.data(), wire.size()));

    FdSession session;
    FrameReader reader;
    char buf[64 * 1024];
    long n;
    while ((n = recvSome(mine.fd(), buf, sizeof(buf))) > 0)
        reader.feed(buf, static_cast<std::size_t>(n));
    Frame frame;
    while (reader.next(frame)) {
        if (frame.type == FrameType::Checkpoint)
            session.checkpoint = frame.payload;
        else if (frame.type == FrameType::Row)
            session.row = frame.payload;
    }
    EXPECT_EQ(reader.error(), "");
    EXPECT_EQ(::waitpid(pid, &session.status, 0), pid);
    return session;
}

TEST(RunnerSigterm, ExitsRetryableWithDurableCheckpoint)
{
    const fs::path root = scratchDir("sigterm");
    const std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    const std::string job = serializeCellJob(cells[0]);

    // The chaos flag SIGTERMs the worker right after its first
    // checkpoint upload: it must exit with the dedicated retryable
    // code, with that upload delivered and NO row.
    const FdSession termed =
        runFdSession(job, "",
                     {"--work-dir", (root / "termed").string(),
                      "--chaos-sigterm-after", "1"});
    ASSERT_TRUE(WIFEXITED(termed.status));
    EXPECT_EQ(WEXITSTATUS(termed.status), kRunnerExitSigterm);
    ASSERT_FALSE(termed.checkpoint.empty());
    EXPECT_EQ(termed.row, "");

    // A retry seeded with that checkpoint resumes and must render the
    // same report as an uninterrupted run.
    const FdSession retry = runFdSession(
        job, termed.checkpoint, {"--work-dir", (root / "retry").string()});
    const FdSession clean =
        runFdSession(job, "", {"--work-dir", (root / "clean").string()});
    for (const FdSession *run : {&retry, &clean}) {
        ASSERT_TRUE(WIFEXITED(run->status));
        EXPECT_EQ(WEXITSTATUS(run->status), 0);
    }
    // Row blobs embed wall time, so compare the deterministic report
    // rendering, not the raw bytes.
    const auto asReport = [](const std::string &row) {
        SweepReport report;
        report.name = "one";
        report.cells.push_back(deserializeCellRow(row));
        return sweepReportJson(report, {});
    };
    EXPECT_EQ(asReport(retry.row), asReport(clean.row));
    fs::remove_all(root);
}

TEST(RunnerSigterm, SchedulerRetriesASigtermedWorker)
{
    const fs::path root = scratchDir("sigterm_sched");

    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(2);
    DistSweepOptions opts;
    opts.processes = 2;
    opts.runnerPath = kDaemon;
    opts.workDir = (root / "work").string();
    opts.checkpointDir = (root / "ckpt").string();
    opts.checkpointEvery = 1;
    opts.chaosKillCell = 1;
    opts.chaosKillAfter = 1;
    opts.chaosSigterm = true; // graceful exit instead of SIGKILL

    const SweepReport report = runSweepCellsDist("st", cells, opts);
    ASSERT_EQ(report.cells.size(), 2u);
    EXPECT_TRUE(report.cells[1].completed) << report.cells[1].error;
    EXPECT_EQ(report.cells[1].attempts, 2);
    EXPECT_EQ(report.cells[0].attempts, 1);
    fs::remove_all(root);
}

TEST(DaemonSigterm, IdleDaemonExitsCleanly)
{
    const fs::path root = scratchDir("daemon_sigterm");
    DaemonProc daemon = spawnDaemon(root, "d");
    ::kill(daemon.pid, SIGTERM);
    int status = 0;
    ASSERT_EQ(::waitpid(daemon.pid, &status, 0), daemon.pid);
    daemon.pid = -1;
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    fs::remove_all(root);
}

TEST(DaemonCli, BadPortExitsTwoWithoutAPortFile)
{
    const fs::path root = scratchDir("daemon_port");
    const std::string port_file = (root / "port").string();
    for (const std::string port : {"70000", "-1", "http"}) {
        const pid_t pid =
            spawnChild({kDaemon, "--port", port, "--port-file", port_file,
                        "--work-dir", (root / "w").string()});
        // A daemon that bound a port instead would serve forever.
        int status = 0;
        pid_t reaped = 0;
        for (int i = 0; i < 1000 && reaped == 0; ++i) {
            reaped = ::waitpid(pid, &status, WNOHANG);
            if (reaped == 0)
                ::usleep(10 * 1000);
        }
        if (reaped == 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, &status, 0);
        }
        ASSERT_EQ(reaped, pid) << "--port " << port << " kept running";
        ASSERT_TRUE(WIFEXITED(status)) << port;
        EXPECT_EQ(WEXITSTATUS(status), 2) << port;
        EXPECT_FALSE(fs::exists(port_file)) << port;
    }
    fs::remove_all(root);
}

// ------------------------------------------------- fleet scheduling

TEST(NetScheduler, DeadEndpointRetiresWithoutBurningRetries)
{
    const fs::path root = scratchDir("dead_endpoint");

    // Grab a port nothing listens on: bind an ephemeral listener and
    // close it again.
    std::uint16_t dead_port = 0;
    {
        OwnedFd listener = tcpListen(TcpEndpoint{}, dead_port);
        ASSERT_TRUE(listener.valid());
    }

    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(2);
    DistSweepOptions opts;
    opts.processes = 1;
    opts.runnerPath = kDaemon;
    opts.workDir = (root / "work").string();
    opts.endpoints = {"127.0.0.1:" + std::to_string(dead_port)};
    opts.maxRetries = 0; // any burned attempt would fail the cell

    const SweepReport report = runSweepCellsDist("dead", cells, opts);
    ASSERT_EQ(report.cells.size(), 2u);
    for (const SweepCellResult &cell : report.cells) {
        EXPECT_TRUE(cell.completed) << cell.error;
        EXPECT_EQ(cell.attempts, 1);
    }
    EXPECT_EQ(report.workersUsed, 2); // 1 local + 1 (retired) endpoint
    fs::remove_all(root);
}

TEST(NetScheduler, AllEndpointsDeadFailsLoudly)
{
    const fs::path root = scratchDir("all_dead");
    std::uint16_t dead_port = 0;
    {
        OwnedFd listener = tcpListen(TcpEndpoint{}, dead_port);
        ASSERT_TRUE(listener.valid());
    }
    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(1);
    DistSweepOptions opts;
    opts.processes = 0; // endpoint-only fleet
    opts.workDir = (root / "work").string();
    opts.endpoints = {"127.0.0.1:" + std::to_string(dead_port)};
    EXPECT_THROW(runSweepCellsDist("dead", cells, opts),
                 std::runtime_error);
    fs::remove_all(root);
}

TEST(NetScheduler, LocalChildDyingBeforeHelloRetiresSlotForFree)
{
    const fs::path root = scratchDir("dead_child");

    // /bin/true exits 0 without ever saying Hello: its local slot must
    // retire like an unreachable endpoint, without charging the cell.
    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(2);
    DaemonProc d0 = spawnDaemon(root, "d0");
    DistSweepOptions opts;
    opts.processes = 1;
    opts.runnerPath = "/bin/true";
    opts.workDir = (root / "work").string();
    opts.endpoints = {d0.endpoint()};
    opts.maxRetries = 0; // any burned attempt would fail the cell

    const SweepReport report = runSweepCellsDist("dead_child", cells, opts);
    reapDaemon(d0);
    ASSERT_EQ(report.cells.size(), 2u);
    for (const SweepCellResult &cell : report.cells) {
        EXPECT_TRUE(cell.completed) << cell.error;
        EXPECT_EQ(cell.attempts, 1);
    }

    // With no other slot, the grid fails loudly instead of spinning.
    opts.endpoints.clear();
    EXPECT_THROW(runSweepCellsDist("dead_child", cells, opts),
                 std::runtime_error);
    fs::remove_all(root);
}

/** Listen once, send @p payload to whoever connects, close. */
std::thread
evilDaemon(std::uint16_t &port, std::string payload)
{
    OwnedFd listener = tcpListen(TcpEndpoint{}, port);
    EXPECT_TRUE(listener.valid());
    return std::thread([fd = listener.release(),
                        payload = std::move(payload)] {
        OwnedFd owned(fd);
        OwnedFd conn = tcpAccept(owned.fd(), 20000);
        if (conn.valid() && !payload.empty())
            sendAll(conn.fd(), payload.data(), payload.size());
    });
}

TEST(NetScheduler, GarbageBeforeHandshakeRetiresEndpointForFree)
{
    const fs::path root = scratchDir("evil_prehello");

    std::uint16_t evil_port = 0;
    std::thread evil =
        evilDaemon(evil_port, "this is definitely not a frame stream");

    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(2);
    DistSweepOptions opts;
    opts.processes = 1;
    opts.runnerPath = kDaemon;
    opts.workDir = (root / "work").string();
    opts.endpoints = {"127.0.0.1:" + std::to_string(evil_port)};
    opts.maxRetries = 0; // malformed-before-handshake must be free

    const SweepReport report = runSweepCellsDist("evil", cells, opts);
    evil.join();
    for (const SweepCellResult &cell : report.cells) {
        EXPECT_TRUE(cell.completed) << cell.error;
        EXPECT_EQ(cell.attempts, 1);
    }
    fs::remove_all(root);
}

TEST(NetScheduler, MalformedFramesMidCellConsumeOneAttemptAndRequeue)
{
    const fs::path root = scratchDir("evil_midcell");

    // A protocol-correct handshake followed by stream corruption: the
    // scheduler must close, charge ONE attempt, requeue the cell to a
    // healthy slot, and keep the rest of the grid flowing.
    HelloPayload hello;
    hello.jobWireVersion = kCellJobVersion;
    hello.rowWireVersion = kCellRowVersion;
    std::string payload = encodeFrame(FrameType::Hello,
                                      encodeHello(hello));
    payload += "garbage garbage garbage garbage!";
    std::uint16_t evil_port = 0;
    std::thread evil = evilDaemon(evil_port, std::move(payload));

    std::vector<SweepCell> cells = expandSweepGrid(tinyNetSweep());
    cells.resize(2);
    DistSweepOptions opts;
    opts.processes = 1;
    opts.runnerPath = kDaemon;
    opts.workDir = (root / "work").string();
    opts.endpoints = {"127.0.0.1:" + std::to_string(evil_port)};
    opts.maxRetries = 1;

    const SweepReport report = runSweepCellsDist("evil2", cells, opts);
    evil.join();
    ASSERT_EQ(report.cells.size(), 2u);
    // Slot order is deterministic: local takes cell 0, evil takes
    // cell 1; the corrupted stream costs cell 1 exactly one attempt.
    EXPECT_TRUE(report.cells[1].completed) << report.cells[1].error;
    EXPECT_EQ(report.cells[1].attempts, 2);
    EXPECT_TRUE(report.cells[0].completed);
    EXPECT_EQ(report.cells[0].attempts, 1);
    fs::remove_all(root);
}

TEST(NetScheduler, MixedFleetMatchesLocalBytes)
{
    const fs::path root = scratchDir("mixed");

    const SweepConfig cfg = tinyNetSweep();
    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    const SweepReport local = runSweepCells(
        cfg.name, cells, 1, {}, (root / "local_ckpt").string(), 1);

    DaemonProc d0 = spawnDaemon(root, "d0");
    DaemonProc d1 = spawnDaemon(root, "d1");
    DistSweepOptions opts;
    opts.processes = 1; // 1 local slot + 2 daemons: a mixed fleet
    opts.runnerPath = kDaemon;
    opts.workDir = (root / "work").string();
    opts.checkpointDir = (root / "ckpt").string();
    opts.checkpointEvery = 1;
    opts.endpoints = {d0.endpoint(), d1.endpoint()};

    const SweepReport dist = runSweepCellsDist(cfg.name, cells, opts);
    reapDaemon(d0);
    reapDaemon(d1);
    EXPECT_EQ(dist.workersUsed, 3);
    EXPECT_EQ(sweepReportJson(dist, {}), sweepReportJson(local, {}));
    fs::remove_all(root);
}

/**
 * Report bytes do not depend on the matmul backend. The mask bakeoff's
 * unmasked and masked PPO cells run on one local slot, one daemon
 * forced onto the portable kernels and one left on its host's choice
 * (AVX2+FMA where the CPU has it), and render the report workers=1
 * renders in-process. Slots claim cells in order, so cell 1, the
 * unmasked PPO cell, runs on the portable daemon. Its first 20 epochs
 * end at a different accuracy when the portable kernels sum in another
 * order; the full 54 would cost minutes in sanitizer builds.
 */
TEST(NetScheduler, MixedBackendFleetMatchesLocalBytes)
{
    const fs::path root = scratchDir("backends");

    // examples/configs/mask_bakeoff.cfg without random_search, cut
    // from 120 epochs to 20.
    const SweepConfig cfg = parseSweepConfig(std::string(R"(
num_sets = 1
num_ways = 2
attack_addr_s = 0
attack_addr_e = 2
victim_addr_s = 0
victim_addr_e = 0
victim_no_access_enable = true
window_size = 10
seed = 7
ppo_seed = 21
steps_per_epoch = 600
minibatch_size = 100
max_epochs = 20
target_accuracy = 0.9
eval_episodes = 100
sweep.name = mask-bakeoff
sweep.seeds = 7
sweep.bakeoff_agents = ppo, ppo_masked
sweep.masked_penalty = 0.02
)"));
    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 3u);
    ASSERT_EQ(cells[1].label, "guessing_game/lru/s7/ppo");
    const SweepReport local = runSweepCells(cfg.name, cells, 1);

    const std::vector<std::string> portable_env = matBackendEnv(true);
    const std::vector<std::string> native_env = matBackendEnv(false);
    DaemonProc portable = spawnDaemon(root, "portable", {}, &portable_env);
    DaemonProc native = spawnDaemon(root, "native", {}, &native_env);
    DistSweepOptions opts;
    opts.processes = 1;
    opts.runnerPath = kDaemon;
    opts.workDir = (root / "work").string();
    opts.endpoints = {portable.endpoint(), native.endpoint()};

    const SweepReport dist = runSweepCellsDist(cfg.name, cells, opts);
    reapDaemon(portable);
    reapDaemon(native);
    EXPECT_EQ(dist.workersUsed, 3);
    for (const SweepCellResult &row : dist.cells)
        EXPECT_EQ(row.attempts, 1) << row.cell.label;
    EXPECT_EQ(sweepReportJson(dist, {}), sweepReportJson(local, {}));
    fs::remove_all(root);
}

/**
 * THE acceptance oracle: a grid sharded across 3 localhost runner
 * daemons — one of which SIGKILLs itself right after its first
 * checkpoint upload — with the scheduler itself stop-injected
 * mid-grid and a FRESH scheduler re-entering through the grid
 * manifest, renders byte-identical default reports to the same grid
 * run in-process with workers=1. Already-recorded rows are adopted,
 * not re-run.
 */
TEST(NetScheduler, DaemonKillPlusSchedulerRestartIsByteIdentical)
{
    const fs::path root = scratchDir("oracle");

    const SweepConfig cfg = tinyNetSweep();
    const std::vector<SweepCell> cells = expandSweepGrid(cfg);
    ASSERT_EQ(cells.size(), 4u);
    const SweepReport local = runSweepCells(
        cfg.name, cells, 1, {}, (root / "local_ckpt").string(), 1);

    DaemonProc d0 = spawnDaemon(root, "d0");
    DaemonProc d1 =
        spawnDaemon(root, "d1", {"--chaos-kill-after", "1"});
    DaemonProc d2 = spawnDaemon(root, "d2");

    DistSweepOptions opts;
    opts.processes = 0; // daemons only
    opts.workDir = (root / "work").string();
    opts.checkpointDir = (root / "ckpt").string();
    opts.checkpointEvery = 1;
    opts.manifestDir = (root / "manifest").string();
    opts.endpoints = {d0.endpoint(), d1.endpoint(), d2.endpoint()};
    opts.maxRetries = 1;

    // Run 1: the scheduler "dies" (stop injection) after two cells
    // land; daemon d1 SIGKILLed itself mid-cell along the way.
    DistSweepOptions first = opts;
    first.stopAfterCells = 2;
    bool stopped = false;
    try {
        runSweepCellsDist(cfg.name, cells, first);
    } catch (const DistStopInjected &e) {
        stopped = true;
        EXPECT_EQ(e.cellsDone, 2u);
    }
    ASSERT_TRUE(stopped);

    // Snapshot what the manifest recorded: those rows must be adopted
    // by the re-entered run, never recomputed.
    std::vector<std::pair<std::string, fs::file_time_type>> recorded;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string p =
            opts.manifestDir + "/row_" + std::to_string(i) + ".blob";
        if (fs::exists(p))
            recorded.emplace_back(p, fs::last_write_time(p));
    }
    EXPECT_EQ(recorded.size(), 2u);

    // Run 2: a FRESH scheduler process (new call, same manifest dir)
    // re-enters and finishes the grid on the surviving daemons.
    const SweepReport dist = runSweepCellsDist(cfg.name, cells, opts);
    reapDaemon(d0);
    reapDaemon(d1);
    reapDaemon(d2);

    EXPECT_EQ(dist.cellsAdopted, recorded.size());
    for (const auto &[path, mtime] : recorded) {
        EXPECT_EQ(fs::last_write_time(path), mtime)
            << path << " was rewritten by the re-entered run";
    }
    ASSERT_EQ(dist.cells.size(), local.cells.size());
    for (const SweepCellResult &cell : dist.cells)
        EXPECT_TRUE(cell.completed) << cell.error;
    EXPECT_EQ(sweepReportJson(dist, {}), sweepReportJson(local, {}));
    fs::remove_all(root);
}

// ------------------------------------------------------------ gateway

TEST(Gateway, MultiTenantCampaignsShareOneFleetByteIdentically)
{
    const fs::path root = scratchDir("gateway");

    // Two tenants, different (sub)grids, one fleet. Bob's campaign
    // outranks Alice's, so it schedules first.
    SweepConfig alice = tinyNetSweep();
    alice.name = "alice-nightly";
    alice.gatewayTenant = "alice";
    alice.gatewayPriority = 0;
    alice.grid.scenarios = {"guessing_game"};

    SweepConfig bob = tinyNetSweep();
    bob.name = "bob-quick";
    bob.gatewayTenant = "bob";
    bob.gatewayPriority = 5;
    bob.grid.policies = {ReplPolicy::Lru};

    const SweepReport alice_solo = runSweepCells(
        alice.name, expandSweepGrid(alice), 1, {});
    const SweepReport bob_solo =
        runSweepCells(bob.name, expandSweepGrid(bob), 1, {});

    FleetOptions fleet;
    fleet.localProcesses = 2;
    fleet.runnerPath = kDaemon;

    CampaignGateway gateway((root / "gw").string(), fleet);
    gateway.submit(alice);
    gateway.submit(bob);
    // Same (tenant, campaign) pair: refused, not silently duplicated.
    EXPECT_THROW(gateway.submit(bob), std::invalid_argument);
    // A tenant name that is not a path-safe token is refused.
    SweepConfig evil = tinyNetSweep();
    evil.gatewayTenant = "../escape";
    EXPECT_THROW(gateway.submit(evil), std::invalid_argument);

    const std::vector<GatewayResult> results = gateway.run();
    ASSERT_EQ(results.size(), 2u);
    // Priority order: bob first.
    EXPECT_EQ(results[0].tenant, "bob");
    EXPECT_EQ(results[1].tenant, "alice");

    // Per-tenant trees, reports on disk, and — the contract — each
    // campaign's bytes identical to running it alone with workers=1.
    EXPECT_EQ(results[0].reportJson, sweepReportJson(bob_solo, {}));
    EXPECT_EQ(results[1].reportJson, sweepReportJson(alice_solo, {}));
    EXPECT_EQ(readWholeFile(results[0].reportPath, "report"),
              results[0].reportJson);
    EXPECT_TRUE(fs::is_directory(root / "gw" / "alice" /
                                 "alice-nightly" / "manifest"));
    EXPECT_TRUE(fs::is_directory(root / "gw" / "bob" / "bob-quick" /
                                 "work"));
    fs::remove_all(root);
}

TEST(Gateway, RefusesCampaignsSharingACheckpointDir)
{
    const fs::path root = scratchDir("gateway_ckpt");
    FleetOptions fleet;
    fleet.localProcesses = 1;
    CampaignGateway gateway((root / "gw").string(), fleet);

    // Checkpoints are keyed by cell index only: a second campaign in
    // the same directory would resume from the first one's files.
    SweepConfig bob = tinyNetSweep();
    bob.name = "bob-quick";
    bob.gatewayTenant = "bob";
    bob.checkpointDir = (root / "ckpt").string();
    gateway.submit(bob);

    SweepConfig alice = tinyNetSweep();
    alice.name = "alice-nightly";
    alice.gatewayTenant = "alice";
    alice.checkpointDir = (root / "elsewhere" / ".." / "ckpt").string();
    EXPECT_THROW(gateway.submit(alice), std::invalid_argument);
    alice.checkpointDir = (root / "alice_ckpt").string();
    EXPECT_NO_THROW(gateway.submit(alice));

    // Campaigns without checkpoints never collide.
    SweepConfig carol = tinyNetSweep();
    carol.gatewayTenant = "carol";
    SweepConfig dave = carol;
    dave.gatewayTenant = "dave";
    EXPECT_NO_THROW(gateway.submit(carol));
    EXPECT_NO_THROW(gateway.submit(dave));
    EXPECT_EQ(gateway.submissions().size(), 4u);
    fs::remove_all(root);
}

} // namespace
} // namespace autocat
