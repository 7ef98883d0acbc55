/**
 * @file
 * Unit tests for the RL substrate: matrix ops, layer gradients
 * (checked against finite differences), Adam, GAE, the categorical
 * distribution math, and the search baselines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "rl/actor_critic.hpp"
#include "rl/adam.hpp"
#include "rl/mat.hpp"
#include "rl/nn.hpp"
#include "rl/rollout.hpp"
#include "rl/search.hpp"

namespace autocat {
namespace {

// --------------------------------------------------------------- mat --

TEST(Mat, MatmulMatchesHandComputation)
{
    Matrix a(2, 3), b(3, 2);
    float av[] = {1, 2, 3, 4, 5, 6};
    float bv[] = {7, 8, 9, 10, 11, 12};
    std::copy(av, av + 6, a.data());
    std::copy(bv, bv + 6, b.data());
    const Matrix c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Mat, TransposedVariantsAgree)
{
    Rng rng(4);
    Matrix a(3, 4), b(4, 5);
    for (std::size_t i = 0; i < a.size(); ++i)
        a.data()[i] = static_cast<float>(rng.gaussian());
    for (std::size_t i = 0; i < b.size(); ++i)
        b.data()[i] = static_cast<float>(rng.gaussian());

    // linearForwardInto(a, b^T, 0) == matmul(a, b)
    Matrix bt(5, 4);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            bt(c, r) = b(r, c);
    const Matrix c1 = matmul(a, b);
    Matrix c2;
    linearForwardInto(c2, a, bt, std::vector<float>(5, 0.0f), false);
    ASSERT_EQ(c1.rows(), c2.rows());
    for (std::size_t i = 0; i < c1.size(); ++i)
        EXPECT_NEAR(c1.data()[i], c2.data()[i], 1e-4);

    // matmulTransAInto(a, a) == a^T a
    Matrix at(4, 3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 4; ++c)
            at(c, r) = a(r, c);
    Matrix c3;
    matmulTransAInto(c3, a, a);
    const Matrix c4 = matmul(at, a);
    for (std::size_t i = 0; i < c3.size(); ++i)
        EXPECT_NEAR(c3.data()[i], c4.data()[i], 1e-4);
}

TEST(Mat, AddRowVectorAndColSum)
{
    Matrix m(2, 3);
    addRowVector(m, {1.0f, 2.0f, 3.0f});
    EXPECT_FLOAT_EQ(m(1, 2), 3.0f);
    const auto sums = colSum(m);
    EXPECT_FLOAT_EQ(sums[0], 2.0f);
    EXPECT_FLOAT_EQ(sums[2], 6.0f);
}

// ---------------------------------------------------------- nn/layer --

TEST(Linear, ForwardComputesAffineMap)
{
    Rng rng(1);
    Linear lin(2, 1, rng);
    lin.weights()(0, 0) = 2.0f;
    lin.weights()(0, 1) = -1.0f;
    lin.bias()[0] = 0.5f;
    Matrix x(1, 2);
    x(0, 0) = 3.0f;
    x(0, 1) = 4.0f;
    const Matrix y = lin.forward(x);
    EXPECT_FLOAT_EQ(y(0, 0), 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(Linear, GradientsMatchFiniteDifferences)
{
    Rng rng(2);
    Linear lin(3, 2, rng);
    Matrix x(2, 3);
    for (std::size_t i = 0; i < x.size(); ++i)
        x.data()[i] = static_cast<float>(rng.gaussian());

    // Loss = sum(y); dL/dy = 1.
    auto loss = [&] {
        const Matrix y = lin.forward(x);
        float s = 0.0f;
        for (std::size_t i = 0; i < y.size(); ++i)
            s += y.data()[i];
        return s;
    };

    lin.zeroGrad();
    Matrix ones(2, 2);
    for (std::size_t i = 0; i < ones.size(); ++i)
        ones.data()[i] = 1.0f;
    const Matrix dx = lin.backward(ones, x);

    auto blocks = lin.paramBlocks();
    const float eps = 1e-3f;
    for (auto &blk : blocks) {
        for (std::size_t i = 0; i < blk.size; i += 2) {
            const float orig = blk.params[i];
            blk.params[i] = orig + eps;
            const float up = loss();
            blk.params[i] = orig - eps;
            const float down = loss();
            blk.params[i] = orig;
            EXPECT_NEAR(blk.grads[i], (up - down) / (2 * eps), 2e-2);
        }
    }

    // Input gradient: dL/dx = colsum of W.
    for (std::size_t c = 0; c < 3; ++c) {
        const float expect =
            lin.weights()(0, c) + lin.weights()(1, c);
        EXPECT_NEAR(dx(0, c), expect, 1e-4);
        EXPECT_NEAR(dx(1, c), expect, 1e-4);
    }
}

/**
 * An observation-shaped 4 x 21 input: 7 nonzeros (92% zeros), one-hot
 * entries, one fractional feature, and nonzeros in the k % 8 tail on
 * both sides of its rounded/fused boundary (k = 21: positions 16-19
 * are rounded, 20 is fused).
 */
Matrix
observationShapedInput()
{
    Matrix x(4, 21);
    x(0, 2) = 1.0f;
    x(0, 17) = 1.0f;
    x(1, 6) = 0.4375f;
    x(1, 20) = 1.0f;
    x(2, 11) = 1.0f;
    x(3, 0) = 1.0f;
    x(3, 19) = 1.0f;
    return x;
}

/**
 * Central differences of @p loss against the accumulated gradient of
 * every parameter; returns how many were checked.
 */
template <typename Loss>
int
expectGradsMatchFiniteDifferences(std::vector<ParamBlock> &blocks,
                                  Loss loss, float eps,
                                  double abs_tol, double rel_tol)
{
    int checked = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        ParamBlock &blk = blocks[b];
        for (std::size_t i = 0; i < blk.size; ++i) {
            const float orig = blk.params[i];
            blk.params[i] = orig + eps;
            const double up = loss();
            blk.params[i] = orig - eps;
            const double down = loss();
            blk.params[i] = orig;
            const double fd = (up - down) / (2.0 * eps);
            EXPECT_NEAR(blk.grads[i], fd, abs_tol + rel_tol * std::abs(fd))
                << "block " << b << ", parameter " << i;
            ++checked;
        }
    }
    return checked;
}

TEST(Mlp, GradientsMatchFiniteDifferences)
{
    Rng rng(3);
    Matrix gaussian(3, 4);
    for (std::size_t i = 0; i < gaussian.size(); ++i)
        gaussian.data()[i] = static_cast<float>(rng.gaussian());

    for (const Matrix &x : {gaussian, observationShapedInput()}) {
        Mlp mlp({x.cols(), 8, 3}, rng, /*activate_last=*/false);
        auto loss = [&] {
            Matrix y = mlp.forward(x);
            float s = 0.0f;
            for (std::size_t i = 0; i < y.size(); ++i)
                s += y.data()[i] * y.data()[i];
            return 0.5f * s;
        };

        mlp.zeroGrad();
        Matrix y = mlp.forward(x);
        mlp.backward(y);  // dL/dy = y for the squared loss

        auto blocks = mlp.paramBlocks();
        const int checked = expectGradsMatchFiniteDifferences(
            blocks, loss, 1e-2f, 2e-2, 0.05);
        EXPECT_GT(checked, 60);
    }
}

/**
 * The loss the actor-critic's backward is checked against: per row,
 * -log p(a) - 0.1 H + 0.5 (v - ret)^2 under the (masked when @p masks
 * is given) softmax of the logits. Writes the analytic loss gradients
 * w.r.t. logits and values — the same formulas PpoTrainer::update
 * uses — when @p dlogits is non-null.
 */
double
actorCriticLoss(ActorCritic &net, const Matrix &obs,
                const std::vector<std::size_t> &actions,
                const std::uint8_t *masks, Matrix *dlogits,
                std::vector<float> *dvalues)
{
    constexpr double kEntropyCoef = 0.1;
    const AcOutput out = net.forward(obs);
    std::vector<double> probs, ent;
    if (masks)
        softmaxEntropyRowsMaskedInto(probs, ent, out.logits, masks);
    else
        softmaxEntropyRowsInto(probs, ent, out.logits);
    const std::size_t na = out.logits.cols();
    if (dlogits) {
        dlogits->resize(obs.rows(), na);
        dvalues->assign(obs.rows(), 0.0f);
    }
    double loss = 0.0;
    for (std::size_t r = 0; r < obs.rows(); ++r) {
        const double *p = probs.data() + r * na;
        const double ret = 0.25 * static_cast<double>(r) - 0.5;
        const double verr = static_cast<double>(out.values[r]) - ret;
        loss += -std::log(p[actions[r]]) - kEntropyCoef * ent[r] +
                0.5 * verr * verr;
        if (!dlogits)
            continue;
        for (std::size_t k = 0; k < na; ++k) {
            const double ind = k == actions[r] ? 1.0 : 0.0;
            const double g =
                (p[k] - ind) +
                kEntropyCoef * p[k] *
                    (std::log(std::max(p[k], 1e-12)) + ent[r]);
            (*dlogits)(r, k) = static_cast<float>(g);
        }
        (*dvalues)[r] = static_cast<float>(verr);
    }
    return loss;
}

/**
 * Gradients through both heads and the torso against central
 * differences, on an observation-shaped input, for the unmasked and
 * the masked softmax-entropy.
 */
TEST(ActorCritic, GradientsMatchFiniteDifferences)
{
    const Matrix obs = observationShapedInput();
    const std::vector<std::size_t> actions{1, 4, 0, 2};
    // Each row masks out two actions, never its own.
    std::vector<std::uint8_t> masks(obs.rows() * 5, 1);
    for (std::size_t r = 0; r < obs.rows(); ++r) {
        masks[r * 5 + (actions[r] + 1) % 5] = 0;
        masks[r * 5 + (actions[r] + 3) % 5] = 0;
    }

    const std::uint8_t *const variants[] = {nullptr, masks.data()};
    for (const std::uint8_t *mask : variants) {
        Rng rng(12);
        ActorCritic net(obs.cols(), 5, 16, 2, rng);
        std::vector<ParamBlock> blocks = net.paramBlocks();
        // Torso W0, b0, W1, b1, then the policy head's weights: scale
        // them up from the near-uniform init so the softmax terms
        // carry weight in the loss.
        ASSERT_EQ(blocks.size(), 8u);
        for (std::size_t i = 0; i < blocks[4].size; ++i)
            blocks[4].params[i] *= 100.0f;

        Matrix dlogits;
        std::vector<float> dvalues;
        actorCriticLoss(net, obs, actions, mask, &dlogits, &dvalues);
        net.zeroGrad();
        net.backward(dlogits, dvalues);

        const auto loss = [&] {
            return actorCriticLoss(net, obs, actions, mask, nullptr,
                                   nullptr);
        };
        const int checked = expectGradsMatchFiniteDifferences(
            blocks, loss, 1e-3f, 5e-3, 0.02);
        EXPECT_GT(checked, 700) << (mask ? "masked" : "unmasked");
    }
}

/**
 * Refill @p g (in place: ParamBlocks point into it) with exact zeros,
 * values near the float denormal range, ±1e3 outliers and ordinary
 * magnitudes.
 */
void
fillMixedGradients(std::vector<float> &g, Rng &rng)
{
    for (std::size_t i = 0; i < g.size(); ++i) {
        switch (rng.uniformInt(4)) {
        case 0: g[i] = 0.0f; break;
        case 1: g[i] = static_cast<float>(rng.gaussian() * 1e-30); break;
        case 2: g[i] = rng.uniformInt(2) ? 1e3f : -1e3f; break;
        default: g[i] = static_cast<float>(rng.gaussian()); break;
        }
    }
}

TEST(Nn, ReluBackwardMasksNegativePreactivations)
{
    Matrix grad(1, 3), pre(1, 3);
    grad(0, 0) = grad(0, 1) = grad(0, 2) = 1.0f;
    pre(0, 0) = -1.0f;
    pre(0, 1) = 0.0f;
    pre(0, 2) = 2.0f;
    reluBackwardInPlace(grad, pre);
    EXPECT_FLOAT_EQ(grad(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(grad(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(grad(0, 2), 1.0f);
}

TEST(Nn, ClipGradNormScalesDown)
{
    std::vector<float> p(4, 0.0f), g{3.0f, 4.0f, 0.0f, 0.0f};
    std::vector<ParamBlock> blocks{{p.data(), g.data(), 4}};
    clipGradNorm(blocks, 1.0);
    EXPECT_NEAR(gradNorm(blocks), 1.0, 1e-5);
    EXPECT_NEAR(g[0] / g[1], 0.75, 1e-5);
}

/**
 * clipGradNorm against its scalar definition, bit for bit: the norm is
 * a sequential double sum of g^2 over every block in order, and a norm
 * above max_norm scales every gradient by the float max_norm / norm. A
 * norm exactly at max_norm and an all-zero gradient are left alone.
 */
TEST(Nn, ClipGradNormMatchesScalarReferenceBitwise)
{
    const auto reference = [](std::vector<std::vector<float>> g,
                              double max_norm) {
        double total = 0.0;
        for (const auto &blk : g)
            for (float v : blk)
                total += static_cast<double>(v) * static_cast<double>(v);
        const double norm = std::sqrt(total);
        if (norm > max_norm && norm > 0.0) {
            const float scale = static_cast<float>(max_norm / norm);
            for (auto &blk : g)
                for (float &v : blk)
                    v *= scale;
        }
        return g;
    };
    const auto clipped = [](std::vector<std::vector<float>> g,
                            double max_norm) {
        std::vector<float> params(64, 0.0f);
        std::vector<ParamBlock> blocks;
        for (auto &blk : g)
            blocks.push_back({params.data(), blk.data(), blk.size()});
        clipGradNorm(blocks, max_norm);
        return g;
    };

    Rng rng(43);
    std::vector<std::vector<float>> mixed;
    for (std::size_t n : {1, 5, 8, 13, 40}) {
        std::vector<float> g(n);
        fillMixedGradients(g, rng);
        mixed.push_back(g);
    }
    const std::vector<std::vector<float>> at_max{{3.0f}, {}, {4.0f, 0.0f}};
    const std::vector<std::vector<float>> zero{{0.0f, 0.0f}, {0.0f}};

    const struct
    {
        const char *what;
        const std::vector<std::vector<float>> &grads;
        double maxNorm;
    } cases[] = {
        {"mixed, clipped", mixed, 0.5},
        {"mixed, below max_norm", mixed, 1e9},
        {"norm exactly max_norm", at_max, 5.0},
        {"norm just above max_norm", at_max, 4.999},
        {"all-zero gradient", zero, 0.5},
    };
    for (const auto &c : cases) {
        const auto want = reference(c.grads, c.maxNorm);
        const auto got = clipped(c.grads, c.maxNorm);
        for (std::size_t b = 0; b < want.size(); ++b)
            EXPECT_TRUE(want[b].empty() ||
                        std::memcmp(got[b].data(), want[b].data(),
                                    want[b].size() * sizeof(float)) == 0)
                << c.what << ", block " << b;
    }
    EXPECT_EQ(reference(at_max, 5.0), at_max);
    EXPECT_EQ(reference(zero, 0.5), zero);
}

TEST(Adam, MinimizesQuadratic)
{
    std::vector<float> p{5.0f, -3.0f};
    std::vector<float> g(2, 0.0f);
    std::vector<ParamBlock> blocks{{p.data(), g.data(), 2}};
    Adam adam(blocks, 0.1);
    for (int i = 0; i < 500; ++i) {
        g[0] = p[0];  // d/dp (p^2/2)
        g[1] = p[1];
        adam.step(blocks);
    }
    EXPECT_NEAR(p[0], 0.0, 1e-2);
    EXPECT_NEAR(p[1], 0.0, 1e-2);
}

/**
 * Adam::step against the scalar double-precision formula it is
 * defined by, bit for bit: every block length from a single element
 * through partial vector tails up to a layer-sized block.
 */
TEST(Adam, StepMatchesScalarFormulaBitwise)
{
    const std::vector<std::size_t> sizes{1, 3, 4, 5, 7, 49929};
    const double lr = 3e-4, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
    Rng rng(41);

    std::vector<std::vector<float>> params, grads;
    for (std::size_t n : sizes) {
        std::vector<float> p(n);
        for (auto &v : p)
            v = static_cast<float>(rng.gaussian());
        params.push_back(p);
        grads.emplace_back(n, 0.0f);
    }
    std::vector<std::vector<float>> ref_p = params;
    std::vector<std::vector<float>> ref_m, ref_v;
    std::vector<ParamBlock> blocks;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
        blocks.push_back({params[k].data(), grads[k].data(), sizes[k]});
        ref_m.emplace_back(sizes[k], 0.0f);
        ref_v.emplace_back(sizes[k], 0.0f);
    }
    Adam adam(blocks, lr, beta1, beta2, eps);

    for (long t = 1; t <= 5; ++t) {
        for (std::size_t k = 0; k < sizes.size(); ++k)
            fillMixedGradients(grads[k], rng);
        adam.step(blocks);

        const double alpha = lr * std::sqrt(1.0 - std::pow(beta2, t)) /
                             (1.0 - std::pow(beta1, t));
        for (std::size_t k = 0; k < sizes.size(); ++k) {
            for (std::size_t i = 0; i < sizes[k]; ++i) {
                const float g = grads[k][i];
                float &m = ref_m[k][i];
                float &v = ref_v[k][i];
                m = static_cast<float>(beta1 * m + (1.0 - beta1) * g);
                v = static_cast<float>(beta2 * v + (1.0 - beta2) * g * g);
                ref_p[k][i] -= static_cast<float>(
                    alpha * m / (std::sqrt(static_cast<double>(v)) + eps));
            }
            EXPECT_EQ(0, std::memcmp(params[k].data(), ref_p[k].data(),
                                     sizes[k] * sizeof(float)))
                << "params, block of " << sizes[k] << ", step " << t;
            const Adam::State st = adam.state();
            EXPECT_EQ(0, std::memcmp(st.m[k].data(), ref_m[k].data(),
                                     sizes[k] * sizeof(float)))
                << "first moment, block of " << sizes[k] << ", step " << t;
            EXPECT_EQ(0, std::memcmp(st.v[k].data(), ref_v[k].data(),
                                     sizes[k] * sizeof(float)))
                << "second moment, block of " << sizes[k] << ", step " << t;
        }
    }
}

/**
 * Adam state captured mid-run and restored into a fresh optimizer (the
 * checkpoint path) continues bit-identically to the original.
 */
TEST(Adam, StateRoundTripContinuesBitwise)
{
    const std::vector<std::size_t> sizes{5, 49929};
    Rng rng(42);
    std::vector<std::vector<float>> p_a, p_b, grads;
    for (std::size_t n : sizes) {
        std::vector<float> p(n);
        for (auto &v : p)
            v = static_cast<float>(rng.gaussian());
        p_a.push_back(p);
        p_b.push_back(p);
        grads.emplace_back(n, 0.0f);
    }
    std::vector<ParamBlock> blocks_a, blocks_b;
    for (std::size_t k = 0; k < sizes.size(); ++k) {
        blocks_a.push_back({p_a[k].data(), grads[k].data(), sizes[k]});
        blocks_b.push_back({p_b[k].data(), grads[k].data(), sizes[k]});
    }
    Adam a(blocks_a, 1e-3);
    for (int t = 0; t < 3; ++t) {
        for (std::size_t k = 0; k < sizes.size(); ++k)
            fillMixedGradients(grads[k], rng);
        a.step(blocks_a);
    }

    const Adam::State saved = a.state();
    Adam b(blocks_b, 1e-3);
    b.setState(saved);
    const Adam::State restored = b.state();
    EXPECT_EQ(restored.t, saved.t);
    for (std::size_t k = 0; k < sizes.size(); ++k) {
        EXPECT_EQ(restored.m[k], saved.m[k]);
        EXPECT_EQ(restored.v[k], saved.v[k]);
        std::copy(p_a[k].begin(), p_a[k].end(), p_b[k].begin());
    }

    for (int t = 0; t < 2; ++t) {
        for (std::size_t k = 0; k < sizes.size(); ++k)
            fillMixedGradients(grads[k], rng);
        a.step(blocks_a);
        b.step(blocks_b);
    }
    for (std::size_t k = 0; k < sizes.size(); ++k)
        EXPECT_EQ(0, std::memcmp(p_a[k].data(), p_b[k].data(),
                                 sizes[k] * sizeof(float)))
            << "block of " << sizes[k];
}

// ------------------------------------------------------ actor-critic --

TEST(ActorCritic, SoftmaxLogProbEntropyConsistency)
{
    Matrix logits(1, 3);
    logits(0, 0) = 1.0f;
    logits(0, 1) = 2.0f;
    logits(0, 2) = 3.0f;

    const auto p = ActorCritic::softmaxRow(logits, 0);
    EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-9);
    EXPECT_GT(p[2], p[1]);

    for (std::size_t a = 0; a < 3; ++a) {
        EXPECT_NEAR(ActorCritic::logProb(logits, 0, a), std::log(p[a]),
                    1e-9);
    }

    double h = 0.0;
    for (double v : p)
        h -= v * std::log(v);
    EXPECT_NEAR(ActorCritic::entropy(logits, 0), h, 1e-9);
}

TEST(ActorCritic, UniformLogitsGiveMaxEntropy)
{
    Matrix logits(1, 4);
    EXPECT_NEAR(ActorCritic::entropy(logits, 0), std::log(4.0), 1e-9);
}

TEST(ActorCritic, SamplingFollowsDistribution)
{
    Rng rng(8);
    ActorCritic net(4, 2, 16, 1, rng);
    Matrix logits(1, 2);
    logits(0, 0) = 0.0f;
    logits(0, 1) = 2.0f;  // p1 ~ 0.88
    Rng srng(9);
    int ones = 0;
    for (int i = 0; i < 5000; ++i)
        ones += net.sample(logits, 0, srng) == 1 ? 1 : 0;
    EXPECT_NEAR(ones / 5000.0, 0.8808, 0.03);
}

TEST(ActorCritic, ForwardShapes)
{
    Rng rng(10);
    ActorCritic net(6, 5, 32, 2, rng);
    Matrix obs(7, 6);
    const AcOutput out = net.forward(obs);
    EXPECT_EQ(out.logits.rows(), 7u);
    EXPECT_EQ(out.logits.cols(), 5u);
    EXPECT_EQ(out.values.size(), 7u);
}

TEST(ActorCritic, PolicyHeadStartsNearUniform)
{
    Rng rng(11);
    ActorCritic net(8, 6, 32, 2, rng);
    std::vector<float> obs(8, 0.5f);
    const AcOutput out = net.forwardOne(obs);
    EXPECT_GT(ActorCritic::entropy(out.logits, 0),
              0.98 * std::log(6.0));
}

// ----------------------------------------------------------- rollout --

TEST(Rollout, GaeMatchesHandComputation)
{
    RolloutBuffer buf(3, 1);
    const std::vector<float> obs{0.0f};
    // Two-step episode then the start of another.
    buf.add(obs, 0, 1.0, false, 0.5, -0.1);
    buf.add(obs, 0, 2.0, true, 0.4, -0.1);
    buf.add(obs, 0, 0.0, false, 0.3, -0.1);
    const double gamma = 0.9, lambda = 0.8, boot = 0.7;
    buf.computeAdvantages(gamma, lambda, boot);

    // Backward by hand.
    const double d2 = 0.0 + gamma * boot - 0.3;
    const double a2 = d2;
    const double d1 = 2.0 + 0.0 - 0.4;  // done: next value masked
    const double a1 = d1;
    const double d0 = 1.0 + gamma * 0.4 - 0.5;
    const double a0 = d0 + gamma * lambda * a1;

    EXPECT_NEAR(buf.advantages()[0], a0, 1e-12);
    EXPECT_NEAR(buf.advantages()[1], a1, 1e-12);
    EXPECT_NEAR(buf.advantages()[2], a2, 1e-12);
    EXPECT_NEAR(buf.returns()[1], a1 + 0.4, 1e-12);
}

TEST(Rollout, NormalizeAdvantages)
{
    RolloutBuffer buf(4, 1);
    const std::vector<float> obs{0.0f};
    for (double r : {1.0, 2.0, 3.0, 4.0})
        buf.add(obs, 0, r, true, 0.0, 0.0);
    buf.computeAdvantages(1.0, 1.0, 0.0);
    buf.normalizeAdvantages();
    double m = 0.0;
    for (double a : buf.advantages())
        m += a;
    EXPECT_NEAR(m, 0.0, 1e-6);
}

TEST(Rollout, GatherObsSelectsRows)
{
    RolloutBuffer buf(3, 2);
    buf.add({1.0f, 2.0f}, 0, 0, false, 0, 0);
    buf.add({3.0f, 4.0f}, 0, 0, false, 0, 0);
    buf.add({5.0f, 6.0f}, 0, 0, false, 0, 0);
    const Matrix m = buf.gatherObs({2, 0});
    EXPECT_FLOAT_EQ(m(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(m(1, 1), 2.0f);
}

TEST(Rollout, MultiStreamGaeMatchesIndependentStreams)
{
    // Two interleaved streams must produce exactly the advantages of
    // two single-stream buffers: episode boundaries and bootstraps in
    // one stream may not leak into the other.
    const double gamma = 0.9, lambda = 0.8;
    RolloutBuffer s0(3, 1), s1(3, 1);
    s0.add({0.0f}, 0, 1.0, false, 0.5, -0.1);
    s0.add({0.0f}, 0, 2.0, true, 0.4, -0.1);
    s0.add({0.0f}, 0, 0.5, false, 0.3, -0.1);
    s1.add({1.0f}, 1, -1.0, false, 0.2, -0.2);
    s1.add({1.0f}, 1, 0.0, false, 0.1, -0.2);
    s1.add({1.0f}, 1, 3.0, true, 0.6, -0.2);
    s0.computeAdvantages(gamma, lambda, 0.7);
    s1.computeAdvantages(gamma, lambda, 0.0);

    RolloutBuffer both(3, 2, 1);
    const std::vector<std::vector<double>> rewards{
        {1.0, -1.0}, {2.0, 0.0}, {0.5, 3.0}};
    const std::vector<std::vector<std::uint8_t>> dones{
        {0, 0}, {1, 0}, {0, 1}};
    const std::vector<std::vector<double>> values{
        {0.5, 0.2}, {0.4, 0.1}, {0.3, 0.6}};
    for (std::size_t t = 0; t < 3; ++t) {
        Matrix obs(2, 1);
        obs(1, 0) = 1.0f;
        both.addStep(std::move(obs), {0, 1}, rewards[t], dones[t],
                     values[t], {-0.1, -0.2});
    }
    both.computeAdvantages(gamma, lambda, std::vector<double>{0.7, 0.0});

    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_NEAR(both.advantages()[t * 2 + 0], s0.advantages()[t],
                    1e-12);
        EXPECT_NEAR(both.advantages()[t * 2 + 1], s1.advantages()[t],
                    1e-12);
        EXPECT_NEAR(both.returns()[t * 2 + 0], s0.returns()[t], 1e-12);
        EXPECT_NEAR(both.returns()[t * 2 + 1], s1.returns()[t], 1e-12);
    }

    // gatherObs addresses flat time-major (t * streams + s) indices.
    const Matrix m = both.gatherObs({1, 2});
    EXPECT_FLOAT_EQ(m(0, 0), 1.0f);  // t=0, stream 1
    EXPECT_FLOAT_EQ(m(1, 0), 0.0f);  // t=1, stream 0
}

// ------------------------------------------------------------ search --

/** Toy oracle: a sequence distinguishes iff it contains 0 then 1. */
class ToyOracle : public SequenceOracle
{
  public:
    std::size_t numPrimitives() const override { return 3; }

    bool
    isDistinguishing(const std::vector<std::size_t> &seq) override
    {
        for (std::size_t i = 0; i + 1 < seq.size(); ++i) {
            if (seq[i] == 0 && seq[i + 1] == 1)
                return true;
        }
        return false;
    }
};

TEST(Search, ExhaustiveFindsShortestCertificate)
{
    ToyOracle oracle;
    const SearchResult r = exhaustiveSearch(oracle, 2, 1000);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.sequence, (std::vector<std::size_t>{0, 1}));
    EXPECT_GT(r.sequencesTried, 0);
}

TEST(Search, RandomSearchEventuallyFinds)
{
    ToyOracle oracle;
    Rng rng(12);
    const SearchResult r = randomSearch(oracle, 4, 10000, rng);
    EXPECT_TRUE(r.found);
    EXPECT_TRUE(oracle.isDistinguishing(r.sequence));
}

TEST(Search, ExhaustiveRespectsBudget)
{
    ToyOracle oracle;
    // With only 1 candidate examined ({0,0}), nothing is found.
    const SearchResult r = exhaustiveSearch(oracle, 2, 1);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.sequencesTried, 1);
}

TEST(Search, PrimeProbeSearchSpaceFormula)
{
    // M = 2 (N+1)^{2N+1} / (N!)^2; paper quotes ~2.05e7 for N = 8.
    EXPECT_NEAR(primeProbeSearchSpace(8) / 2.05e7, 1.0, 0.05);
    // And the e^{2N} scaling: M(9)/M(8) should be roughly e^2.
    EXPECT_NEAR(primeProbeSearchSpace(9) / primeProbeSearchSpace(8),
                std::exp(2.0), 1.5);
}

} // namespace
} // namespace autocat
