/**
 * @file
 * Unit tests for the util substrate: RNG, statistics, bit helpers,
 * table rendering, and logging.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "util/bits.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace autocat {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next())
            ++same;
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestartsStream)
{
    Rng a(77);
    const auto x0 = a.next();
    a.next();
    a.reseed(77);
    EXPECT_EQ(a.next(), x0);
}

TEST(Rng, UniformIntInBounds)
{
    Rng rng(9);
    for (int i = 0; i < 2000; ++i)
        EXPECT_LT(rng.uniformInt(7), 7u);
}

TEST(Rng, UniformIntCoversAllValues)
{
    Rng rng(10);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(rng.uniformInt(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        saw_lo |= v == -2;
        saw_hi |= v == 2;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng rng(12);
    for (int i = 0; i < 2000; ++i) {
        const double x = rng.uniformDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(14);
    RunningStat st;
    for (int i = 0; i < 20000; ++i)
        st.push(rng.gaussian(2.0, 3.0));
    EXPECT_NEAR(st.mean(), 2.0, 0.1);
    EXPECT_NEAR(st.stddev(), 3.0, 0.1);
}

TEST(Rng, ShufflePreservesElements)
{
    Rng rng(15);
    std::vector<int> v{1, 2, 3, 4, 5, 6};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, WeightedIndexPrefersHeavyWeight)
{
    Rng rng(16);
    int heavy = 0;
    for (int i = 0; i < 5000; ++i) {
        if (rng.weightedIndex({0.1, 0.8, 0.1}) == 1)
            ++heavy;
    }
    EXPECT_GT(heavy, 3500);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng a(99);
    Rng child = a.split();
    EXPECT_NE(a.next(), child.next());
}

// ------------------------------------------------------------- stats --

TEST(RunningStat, BasicMoments)
{
    RunningStat st;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        st.push(x);
    EXPECT_EQ(st.count(), 8u);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    EXPECT_NEAR(st.stddev(), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(st.min(), 2.0);
    EXPECT_DOUBLE_EQ(st.max(), 9.0);
    EXPECT_DOUBLE_EQ(st.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat st;
    EXPECT_EQ(st.count(), 0u);
    EXPECT_EQ(st.mean(), 0.0);
    EXPECT_EQ(st.variance(), 0.0);
}

TEST(RunningStat, ResetClears)
{
    RunningStat st;
    st.push(1.0);
    st.reset();
    EXPECT_EQ(st.count(), 0u);
}

TEST(Stats, MeanAndStddev)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(stddev({1.0, 2.0, 3.0}), 1.0, 1e-12);
    EXPECT_EQ(mean({}), 0.0);
    EXPECT_EQ(stddev({5.0}), 0.0);
}

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
    EXPECT_EQ(median({}), 0.0);
}

TEST(Autocorrelation, PerfectlyPeriodicTrainHasHighPeak)
{
    // Alternating 1,0,1,0,... has |C_2| near 1 at even lags.
    std::vector<double> xs;
    for (int i = 0; i < 60; ++i)
        xs.push_back(i % 2 == 0 ? 1.0 : 0.0);
    EXPECT_GT(autocorrelation(xs, 2), 0.9);
    EXPECT_LT(autocorrelation(xs, 1), -0.9);
    EXPECT_GT(maxAutocorrelation(xs, 10), 0.9);
}

TEST(Autocorrelation, ConstantTrainIsZero)
{
    std::vector<double> xs(50, 1.0);
    EXPECT_EQ(autocorrelation(xs, 1), 0.0);
    EXPECT_EQ(maxAutocorrelation(xs, 10), 0.0);
}

TEST(Autocorrelation, RandomTrainHasLowPeak)
{
    Rng rng(7);
    std::vector<double> xs;
    for (int i = 0; i < 400; ++i)
        xs.push_back(static_cast<double>(rng.uniformInt(2)));
    EXPECT_LT(maxAutocorrelation(xs, 20), 0.3);
}

TEST(Autocorrelation, InvalidLagReturnsZero)
{
    std::vector<double> xs{1.0, 0.0, 1.0};
    EXPECT_EQ(autocorrelation(xs, 0), 0.0);
    EXPECT_EQ(autocorrelation(xs, 3), 0.0);
    EXPECT_EQ(autocorrelation(xs, 99), 0.0);
}

TEST(Autocorrelation, CorrelogramLength)
{
    std::vector<double> xs(30, 0.0);
    xs[3] = 1.0;
    EXPECT_EQ(autocorrelogram(xs, 10).size(), 10u);
    EXPECT_EQ(autocorrelogram(xs, 100).size(), 29u);
}

// -------------------------------------------------------------- bits --

TEST(Bits, RandomBitsAreBinaryAndSized)
{
    Rng rng(21);
    const BitString b = randomBits(rng, 512);
    ASSERT_EQ(b.size(), 512u);
    for (auto v : b)
        EXPECT_LE(v, 1);
}

TEST(Bits, HammingDistance)
{
    EXPECT_EQ(hammingDistance({1, 0, 1}, {1, 1, 1}), 1u);
    EXPECT_EQ(hammingDistance({1, 0}, {1, 0, 1}), 1u);  // zero padded
    EXPECT_EQ(hammingDistance({}, {}), 0u);
}

TEST(Bits, BitErrorRate)
{
    EXPECT_DOUBLE_EQ(bitErrorRate({1, 1, 1, 1}, {1, 1, 0, 0}), 0.5);
    EXPECT_DOUBLE_EQ(bitErrorRate({}, {}), 0.0);
}

class PackRoundtrip : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PackRoundtrip, PackUnpackIsIdentity)
{
    const unsigned bps = GetParam();
    Rng rng(31 + bps);
    BitString msg = randomBits(rng, 96);  // multiple of 1..4
    const auto symbols = packSymbols(msg, bps);
    BitString back = unpackSymbols(symbols, bps);
    back.resize(msg.size());
    EXPECT_EQ(back, msg);
    for (unsigned s : symbols)
        EXPECT_LT(s, 1u << bps);
}

INSTANTIATE_TEST_SUITE_P(BitsPerSymbol, PackRoundtrip,
                         ::testing::Values(1u, 2u, 3u, 4u));

TEST(Bits, PackPadsTail)
{
    const auto symbols = packSymbols({1, 1, 1}, 2);
    ASSERT_EQ(symbols.size(), 2u);
    EXPECT_EQ(symbols[0], 3u);
    EXPECT_EQ(symbols[1], 2u);  // trailing 1 padded with 0
}

TEST(Bits, ToStringRendering)
{
    EXPECT_EQ(toString({1, 0, 1, 1}), "1011");
}

// ------------------------------------------------------------- table --

TEST(TextTable, RendersHeadersAndRows)
{
    TextTable t("Demo", {"a", "bb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::ostringstream oss;
    t.print(oss);
    const std::string s = oss.str();
    EXPECT_NE(s.find("Demo"), std::string::npos);
    EXPECT_NE(s.find("333"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TextTable, CsvEscapesCommasAndQuotes)
{
    TextTable t("T", {"x"});
    t.addRow({"a,b"});
    t.addRow({"say \"hi\""});
    std::ostringstream oss;
    t.printCsv(oss);
    const std::string s = oss.str();
    EXPECT_NE(s.find("\"a,b\""), std::string::npos);
    EXPECT_NE(s.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, NumberFormatting)
{
    EXPECT_EQ(TextTable::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(TextTable::fmt(42L), "42");
}

/**
 * Processes sharing one stderr (runner_daemon children of a sweep
 * driver) must not interleave inside a line: each log line reaches the
 * stream whole. Two children log 500 lines each into one pipe; every
 * line read back must be one child's line, complete, in that child's
 * order.
 */
TEST(Log, LinesFromProcessesSharingStderrStayWhole)
{
    constexpr int kChildren = 2;
    constexpr int kLines = 500;
    int fds[2];
    ASSERT_EQ(0, pipe(fds));
    std::vector<pid_t> pids;
    for (int c = 0; c < kChildren; ++c) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            close(fds[0]);
            dup2(fds[1], STDERR_FILENO);
            close(fds[1]);
            Log::setLevel(LogLevel::Info);
            for (int i = 0; i < kLines; ++i)
                AUTOCAT_LOG_INFO << "child " << c << " line " << i
                                 << " payload";
            _exit(0);
        }
        pids.push_back(pid);
    }
    close(fds[1]);
    std::string out;
    char buf[4096];
    ssize_t got;
    while ((got = read(fds[0], buf, sizeof buf)) > 0)
        out.append(buf, static_cast<std::size_t>(got));
    close(fds[0]);
    for (pid_t pid : pids) {
        int status = 0;
        ASSERT_EQ(pid, waitpid(pid, &status, 0));
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    int last[kChildren] = {-1, -1};
    int whole_lines[kChildren] = {};
    std::istringstream lines(out);
    std::string line;
    int bad = 0;
    while (std::getline(lines, line)) {
        int c = -1, i = -1;
        const bool whole =
            std::sscanf(line.c_str(), "[autocat INFO ] child %d line %d",
                        &c, &i) == 2 &&
            c >= 0 && c < kChildren &&
            line == "[autocat INFO ] child " + std::to_string(c) +
                        " line " + std::to_string(i) + " payload";
        if (whole && i > last[c]) {
            last[c] = i;
            ++whole_lines[c];
        } else if (++bad <= 3) {
            ADD_FAILURE() << "torn or out-of-order line: \"" << line << "\"";
        }
    }
    EXPECT_EQ(bad, 0);
    for (int c = 0; c < kChildren; ++c)
        EXPECT_EQ(whole_lines[c], kLines) << "child " << c;
}

} // namespace
} // namespace autocat
