/**
 * @file
 * Correctness tests for the blocked/SIMD matmul kernels (rl/mat.hpp)
 * against a naive triple-loop reference, across shapes chosen to hit
 * every tile-edge path: non-multiple-of-tile M (4-row blocks), N
 * (4/16-column blocks), and K (8/16-lane vector steps), plus the
 * fused bias+ReLU path and the row-purity guarantee batched
 * collection relies on.
 *
 * The bitwise oracle below goes further than a tolerance: the
 * dispatching kernels must match the portable backend (namespace
 * scalar), which computes each kernel's canonical per-element
 * accumulation order, bit for bit, so a kernel rewrite that reorders
 * a single sum fails here. The sparse-input kernels are held to their
 * dense counterparts the same way. Run the suite with
 * AUTOCAT_MAT_PORTABLE=1 too: the tolerance and sparse-vs-dense
 * checks then exercise the portable kernels.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "rl/actor_critic.hpp"
#include "rl/mat.hpp"
#include "rollout_observations.hpp"
#include "util/rng.hpp"

namespace autocat {
namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.gaussian());
    return m;
}

/** Naive reference C = A * B. */
Matrix
refMatmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double s = 0.0;
            for (std::size_t p = 0; p < a.cols(); ++p)
                s += static_cast<double>(a(i, p)) *
                     static_cast<double>(b(p, j));
            c(i, j) = static_cast<float>(s);
        }
    return c;
}

Matrix
transpose(const Matrix &m)
{
    Matrix t(m.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            t(c, r) = m(r, c);
    return t;
}

void
expectNear(const Matrix &got, const Matrix &want, double tol)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.size(); ++i) {
        const double w = want.data()[i];
        EXPECT_NEAR(got.data()[i], w, tol * (1.0 + std::abs(w)))
            << "at flat index " << i;
    }
}

/**
 * Shapes straddling the register-tile boundaries: the dot kernel tiles
 * j by 4 and k by 8/16, the broadcast kernels tile i by 4 and j by 16.
 */
struct Shape
{
    std::size_t m, k, n;
};

const Shape kOddShapes[] = {
    {1, 1, 1},    {1, 7, 1},    {2, 8, 3},     {3, 15, 5},
    {4, 16, 16},  {5, 17, 17},  {7, 23, 19},   {8, 24, 31},
    {9, 33, 33},  {13, 40, 6},  {16, 64, 48},  {17, 65, 49},
    {1, 256, 128}, {6, 129, 10},
};

TEST(MatKernels, MatmulMatchesReferenceOnOddShapes)
{
    Rng rng(21);
    for (const Shape &s : kOddShapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        expectNear(matmul(a, b), refMatmul(a, b), 1e-4);
    }
}

TEST(MatKernels, MatmulTransAMatchesReferenceOnOddShapes)
{
    Rng rng(23);
    for (const Shape &s : kOddShapes) {
        const Matrix a = randomMatrix(s.k, s.m, rng);  // transposed operand
        const Matrix b = randomMatrix(s.k, s.n, rng);
        Matrix c;
        matmulTransAInto(c, a, b);
        expectNear(c, refMatmul(transpose(a), b), 1e-4);
    }
}

TEST(MatKernels, LinearForwardFusesBiasAndRelu)
{
    Rng rng(24);
    for (const Shape &s : kOddShapes) {
        const Matrix x = randomMatrix(s.m, s.k, rng);
        const Matrix w = randomMatrix(s.n, s.k, rng);
        std::vector<float> bias(s.n);
        for (auto &v : bias)
            v = static_cast<float>(rng.gaussian());

        Matrix want = refMatmul(x, transpose(w));
        for (std::size_t i = 0; i < want.rows(); ++i)
            for (std::size_t j = 0; j < want.cols(); ++j)
                want(i, j) += bias[j];

        Matrix plain;
        linearForwardInto(plain, x, w, bias, /*relu=*/false);
        expectNear(plain, want, 1e-4);

        for (std::size_t i = 0; i < want.size(); ++i)
            if (want.data()[i] < 0.0f)
                want.data()[i] = 0.0f;
        Matrix relu;
        linearForwardInto(relu, x, w, bias, /*relu=*/true);
        expectNear(relu, want, 1e-4);
    }
}

TEST(MatKernels, IntoVariantsReuseDestinationStorage)
{
    Rng rng(25);
    const Matrix a = randomMatrix(5, 12, rng);
    const Matrix b = randomMatrix(12, 9, rng);
    Matrix c(5, 9);  // pre-sized: resizeUninit must be a no-op
    const float *before = c.data();
    matmulInto(c, a, b);
    EXPECT_EQ(c.data(), before);
    expectNear(c, refMatmul(a, b), 1e-4);

    // Re-running into the same destination overwrites, not accumulates.
    matmulInto(c, a, b);
    expectNear(c, refMatmul(a, b), 1e-4);
}

/**
 * Row purity: computing a batch in two arbitrary row-splits must be
 * BITWISE identical to computing it whole. Collection forwards every
 * stream's row in one batch, so a stream's actions must not depend on
 * how many other streams share it.
 */
TEST(MatKernels, LinearForwardIsRowPureUnderBatchSplits)
{
    Rng rng(26);
    const std::size_t k = 37, n = 11;
    const Matrix w = randomMatrix(n, k, rng);
    std::vector<float> bias(n);
    for (auto &v : bias)
        v = static_cast<float>(rng.gaussian());

    const Matrix x = randomMatrix(9, k, rng);
    Matrix full;
    linearForwardInto(full, x, w, bias, /*relu=*/true);

    for (std::size_t split = 1; split < x.rows(); ++split) {
        Matrix lo(split, k), hi(x.rows() - split, k);
        std::memcpy(lo.data(), x.data(), lo.size() * sizeof(float));
        std::memcpy(hi.data(), x.rowPtr(split), hi.size() * sizeof(float));
        Matrix ylo, yhi;
        linearForwardInto(ylo, lo, w, bias, /*relu=*/true);
        linearForwardInto(yhi, hi, w, bias, /*relu=*/true);
        EXPECT_EQ(0, std::memcmp(full.data(), ylo.data(),
                                 ylo.size() * sizeof(float)))
            << "split at " << split;
        EXPECT_EQ(0, std::memcmp(full.rowPtr(split), yhi.data(),
                                 yhi.size() * sizeof(float)))
            << "split at " << split;
    }
}

/** The same invariant end-to-end through the policy network. */
TEST(MatKernels, ActorCriticForwardNoGradIsRowPure)
{
    Rng rng(27);
    ActorCritic net(24, 6, 32, 2, rng);
    Rng orng(28);
    Matrix obs = randomMatrix(7, 24, orng);

    AcOutput full;
    net.forwardNoGrad(obs, full);

    const std::size_t split = 3;
    Matrix lo(split, 24), hi(obs.rows() - split, 24);
    std::memcpy(lo.data(), obs.data(), lo.size() * sizeof(float));
    std::memcpy(hi.data(), obs.rowPtr(split), hi.size() * sizeof(float));
    AcOutput out_lo, out_hi;
    net.forwardNoGrad(lo, out_lo);
    EXPECT_EQ(0, std::memcmp(full.logits.data(), out_lo.logits.data(),
                             out_lo.logits.size() * sizeof(float)));
    net.forwardNoGrad(hi, out_hi);
    EXPECT_EQ(0, std::memcmp(full.logits.rowPtr(split),
                             out_hi.logits.data(),
                             out_hi.logits.size() * sizeof(float)));
    for (std::size_t r = 0; r < split; ++r)
        EXPECT_EQ(full.values[r], out_lo.values[r]);
    for (std::size_t r = split; r < obs.rows(); ++r)
        EXPECT_EQ(full.values[r], out_hi.values[r - split]);
}

// ------------------------------------------------- bitwise oracle --

void
expectBitwise(const Matrix &got, const Matrix &want, const Shape &s,
              const char *what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    if (std::memcmp(got.data(), want.data(), got.size() * sizeof(float)) ==
        0)
        return;
    std::size_t i = 0;
    while (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) == 0)
        ++i;
    ADD_FAILURE() << what << " differs from its reference at shape m="
                  << s.m << " k=" << s.k << " n=" << s.n << ", element ("
                  << i / got.cols() << ", " << i % got.cols() << "): "
                  << got.data()[i] << " vs " << want.data()[i];
}

/**
 * Layer shapes of the paper-shaped learner, as {batch, in, out}: the
 * 251- and 137-wide observations into a 128-wide torso at minibatch
 * 500 and 100, and the single-row inference forward.
 */
const Shape kWorkloadLayers[] = {
    {500, 251, 128}, {500, 137, 128}, {100, 137, 128}, {1, 251, 128}};

/**
 * kOddShapes plus one shape for every n % 16 in 1..15, both below and
 * above one 16-column tile, cycling m % 4 and the k % 8/16 tails.
 */
std::vector<Shape>
oracleShapes()
{
    std::vector<Shape> shapes(std::begin(kOddShapes), std::end(kOddShapes));
    for (std::size_t r = 1; r < 16; ++r) {
        shapes.push_back({r % 4 + 1, 33, r});
        shapes.push_back({4 + r % 4, 9 + r, 16 + r});
    }
    return shapes;
}

TEST(MatKernelsOracle, MatmulIsBitwiseCanonicalOrder)
{
    Rng rng(31);
    std::vector<Shape> shapes = oracleShapes();
    // dX = dY * W: batch x out times out x in.
    for (const Shape &l : kWorkloadLayers)
        shapes.push_back({l.m, l.n, l.k});
    for (const Shape &s : shapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        Matrix want;
        scalar::matmulInto(want, a, b);
        expectBitwise(matmul(a, b), want, s, "matmul");
    }
}

TEST(MatKernelsOracle, MatmulTransAIsBitwiseSequentialFma)
{
    Rng rng(32);
    std::vector<Shape> shapes = oracleShapes();
    // dW = dY^T * X: out x batch times batch x in.
    for (const Shape &l : kWorkloadLayers)
        shapes.push_back({l.n, l.m, l.k});
    for (const Shape &s : shapes) {
        const Matrix a = randomMatrix(s.k, s.m, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        Matrix got, want;
        matmulTransAInto(got, a, b);
        scalar::matmulTransAInto(want, a, b);
        expectBitwise(got, want, s, "matmulTransA");
    }
}

TEST(MatKernelsOracle, LinearForwardIsBitwiseDot8)
{
    Rng rng(34);
    std::vector<Shape> shapes = oracleShapes();
    shapes.insert(shapes.end(), std::begin(kWorkloadLayers),
                  std::end(kWorkloadLayers));
    for (const Shape &s : shapes) {
        const Matrix x = randomMatrix(s.m, s.k, rng);
        const Matrix w = randomMatrix(s.n, s.k, rng);
        std::vector<float> bias(s.n);
        for (auto &v : bias)
            v = static_cast<float>(rng.gaussian());
        for (const bool relu : {false, true}) {
            Matrix got, want;
            linearForwardInto(got, x, w, bias, relu);
            scalar::linearForwardInto(want, x, w, bias, relu);
            expectBitwise(got, want, s,
                          relu ? "linearForward+relu" : "linearForward");
        }
    }
}

// ------------------------------------------------ sparse input layer --

/**
 * A mostly-zero m x k input cycling row kinds from @p kind0: all-zero,
 * fully dense, one-hot-like with a fractional feature and -0.0
 * entries, a nonzero in one p % 16 slot per 16 columns (rows cover
 * every slot), and a random k % 8 tail half the time (so both sides
 * of its rounded/fused boundary).
 */
Matrix
sparseInput(std::size_t m, std::size_t k, std::size_t kind0, Rng &rng)
{
    Matrix x(m, k);
    const std::size_t k8 = k / 8 * 8;
    for (std::size_t i = 0; i < m; ++i) {
        float *row = x.rowPtr(i);
        switch ((i + kind0) % 5) {
        case 0: break;
        case 1:
            for (std::size_t p = 0; p < k; ++p)
                row[p] = static_cast<float>(rng.gaussian());
            break;
        case 2:
            for (std::size_t p = 0; p < k; ++p)
                row[p] = rng.uniformInt(10) == 0 ? 1.0f : -0.0f;
            row[rng.uniformInt(k)] = 0.375f;
            break;
        case 3:
            for (std::size_t p = i % 16; p < k; p += 16)
                row[p] = static_cast<float>(rng.gaussian());
            break;
        default:
            for (std::size_t p = 0; p < k; ++p)
                row[p] = rng.uniformInt(8) == 0
                             ? static_cast<float>(rng.gaussian())
                             : 0.0f;
            break;
        }
        for (std::size_t p = k8; p < k; ++p)
            if (rng.uniformInt(2) == 0)
                row[p] = static_cast<float>(rng.gaussian());
    }
    return x;
}

/**
 * The sparse forward (with and without ReLU) and the sparse dW on @p x
 * against the dense kernels and the portable sparse kernels, by
 * memcmp, at layer width @p n.
 */
void
expectSparseKernelsMatchDense(const Matrix &x, std::size_t n, Rng &rng)
{
    const Shape s{x.rows(), x.cols(), n};
    const Matrix w = randomMatrix(n, x.cols(), rng);
    std::vector<float> bias(n);
    for (auto &v : bias)
        v = static_cast<float>(rng.gaussian());
    SparseRows sx;
    sparseRowsInto(sx, x);
    for (const bool relu : {false, true}) {
        Matrix want, got, portable;
        linearForwardInto(want, x, w, bias, relu);
        sparseLinearForwardInto(got, sx, w, bias, relu);
        scalar::sparseLinearForwardInto(portable, sx, w, bias, relu);
        const char *what =
            relu ? "sparseLinearForward+relu" : "sparseLinearForward";
        expectBitwise(got, want, s, what);
        expectBitwise(portable, want, s, what);
    }
    // dY as the ReLU backward leaves it: a third of it exact zeros.
    Matrix dy = randomMatrix(x.rows(), n, rng);
    for (std::size_t i = 0; i < dy.size(); ++i)
        if (rng.uniformInt(3) == 0)
            dy.data()[i] = 0.0f;
    Matrix want, got, portable;
    matmulTransAInto(want, dy, x);
    sparseMatmulTransAInto(got, dy, sx);
    scalar::sparseMatmulTransAInto(portable, dy, sx);
    expectBitwise(got, want, s, "sparseMatmulTransA");
    expectBitwise(portable, want, s, "sparseMatmulTransA");
}

TEST(MatKernelsOracle, SparseRowsIndexNonzerosByRowAndColumn)
{
    Matrix x(3, 10);
    x(0, 9) = 2.0f;
    x(0, 1) = -0.0f;  // a zero
    x(1, 0) = std::nanf("");
    x(1, 9) = -1.0f;
    x(2, 4) = 0.5f;
    SparseRows s;
    sparseRowsInto(s, x);
    EXPECT_EQ(s.nnz(), 4u);
    EXPECT_EQ(s.rowStart, (std::vector<std::uint32_t>{0, 1, 3, 4}));
    EXPECT_EQ(s.rowCol, (std::vector<std::uint32_t>{9, 0, 9, 4}));
    EXPECT_EQ(s.rowVal[0], 2.0f);
    EXPECT_TRUE(std::isnan(s.rowVal[1]));
    EXPECT_EQ(s.colStart,
              (std::vector<std::uint32_t>{0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 4}));
    EXPECT_EQ(s.colRow, (std::vector<std::uint32_t>{1, 2, 0, 1}));
    EXPECT_EQ(s.colVal[3], -1.0f);

    // Re-indexing a sparser matrix reuses the storage and shrinks.
    sparseRowsInto(s, Matrix(2, 10));
    EXPECT_EQ(s.nnz(), 0u);
    EXPECT_EQ(s.rowStart, (std::vector<std::uint32_t>{0, 0, 0}));
}

TEST(MatKernelsOracle, SparseKernelsMatchDenseOnMixedInputs)
{
    Rng rng(35);
    std::size_t kind0 = 0;
    for (const std::size_t m : {1, 100, 500})
        for (const std::size_t k : {251, 137}) {
            SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k));
            expectSparseKernelsMatchDense(sparseInput(m, k, kind0++, rng),
                                          128, rng);
        }
    for (const Shape &s : kOddShapes)
        for (const std::size_t n : {s.n, std::size_t{128}}) {
            SCOPED_TRACE("m=" + std::to_string(s.m) +
                         " k=" + std::to_string(s.k) +
                         " n=" + std::to_string(n));
            expectSparseKernelsMatchDense(sparseInput(s.m, s.k, kind0++, rng),
                                          n, rng);
        }
}

TEST(MatKernelsOracle, SparseKernelsMatchDenseOnRolloutObservations)
{
    Rng rng(36);
    for (const bool tlb : {false, true}) {
        const Matrix obs = bench::rolloutObservations(tlb, 500);
        EXPECT_EQ(obs.cols(), tlb ? 137u : 251u);
        for (const std::size_t m : {1, 100, 500}) {
            SCOPED_TRACE(std::string(tlb ? "tlb_evict" : "guessing_game") +
                         " m=" + std::to_string(m));
            Matrix x(m, obs.cols());
            std::copy(obs.data(), obs.data() + x.size(), x.data());
            expectSparseKernelsMatchDense(x, 128, rng);
        }
    }
}

TEST(MatKernels, BackendNameIsReported)
{
    const std::string backend = matmulBackend();
    EXPECT_TRUE(backend == "avx2+fma" || backend == "portable");
}

} // namespace
} // namespace autocat
