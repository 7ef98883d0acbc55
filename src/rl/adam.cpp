#include "rl/adam.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

#include "rl/mat.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AUTOCAT_ADAM_X86 1
#include <immintrin.h>
#endif

namespace autocat {

namespace {

/** Coefficients of one Adam step, shared by every element. */
struct AdamCoeffs
{
    double beta1, beta2, alpha, eps;
};

/**
 * The update of elements [i, n) of one block: scalar double math, one
 * element at a time. This order is the definition the vector path
 * must reproduce bit for bit.
 */
void
adamScalar(const ParamBlock &b, float *m, float *v, const AdamCoeffs &c,
           std::size_t i)
{
    for (; i < b.size; ++i) {
        const float g = b.grads[i];
        m[i] = static_cast<float>(c.beta1 * m[i] + (1.0 - c.beta1) * g);
        v[i] = static_cast<float>(c.beta2 * v[i] + (1.0 - c.beta2) * g * g);
        b.params[i] -= static_cast<float>(
            c.alpha * m[i] / (std::sqrt(static_cast<double>(v[i])) + c.eps));
    }
}

#if AUTOCAT_ADAM_X86

/**
 * adamScalar four elements at a time in double lanes: the same
 * operations in the same order, each IEEE-rounded like its scalar
 * twin (conversions, sqrt and divide included). Compiled for AVX2
 * without FMA, so no multiply-add here can be contracted.
 */
__attribute__((target("avx2"))) void
adamAvx2(const ParamBlock &b, float *m, float *v, const AdamCoeffs &c)
{
    const __m256d beta1 = _mm256_set1_pd(c.beta1);
    const __m256d one_m_beta1 = _mm256_set1_pd(1.0 - c.beta1);
    const __m256d beta2 = _mm256_set1_pd(c.beta2);
    const __m256d one_m_beta2 = _mm256_set1_pd(1.0 - c.beta2);
    const __m256d alpha = _mm256_set1_pd(c.alpha);
    const __m256d eps = _mm256_set1_pd(c.eps);
    std::size_t i = 0;
    for (; i + 4 <= b.size; i += 4) {
        const __m256d g = _mm256_cvtps_pd(_mm_loadu_ps(b.grads + i));
        const __m128 m_new = _mm256_cvtpd_ps(_mm256_add_pd(
            _mm256_mul_pd(beta1, _mm256_cvtps_pd(_mm_loadu_ps(m + i))),
            _mm256_mul_pd(one_m_beta1, g)));
        const __m128 v_new = _mm256_cvtpd_ps(_mm256_add_pd(
            _mm256_mul_pd(beta2, _mm256_cvtps_pd(_mm_loadu_ps(v + i))),
            _mm256_mul_pd(_mm256_mul_pd(one_m_beta2, g), g)));
        _mm_storeu_ps(m + i, m_new);
        _mm_storeu_ps(v + i, v_new);
        const __m256d step = _mm256_div_pd(
            _mm256_mul_pd(alpha, _mm256_cvtps_pd(m_new)),
            _mm256_add_pd(_mm256_sqrt_pd(_mm256_cvtps_pd(v_new)), eps));
        _mm_storeu_ps(b.params + i, _mm_sub_ps(_mm_loadu_ps(b.params + i),
                                               _mm256_cvtpd_ps(step)));
    }
    adamScalar(b, m, v, c, i);
}

#endif // AUTOCAT_ADAM_X86

} // namespace

Adam::Adam(const std::vector<ParamBlock> &blocks, double lr, double beta1,
           double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps)
{
    m_.reserve(blocks.size());
    v_.reserve(blocks.size());
    for (const auto &b : blocks) {
        m_.emplace_back(b.size, 0.0f);
        v_.emplace_back(b.size, 0.0f);
    }
}

void
Adam::step(std::vector<ParamBlock> &blocks)
{
    assert(blocks.size() == m_.size());
    ++t_;
    const double bc1 = 1.0 - std::pow(beta1_, t_);
    const double bc2 = 1.0 - std::pow(beta2_, t_);
    const AdamCoeffs coeffs{beta1_, beta2_, lr_ * std::sqrt(bc2) / bc1,
                            eps_};

    for (std::size_t k = 0; k < blocks.size(); ++k) {
        const ParamBlock &b = blocks[k];
        assert(b.size == m_[k].size());
#if AUTOCAT_ADAM_X86
        if (useAvx2()) {
            adamAvx2(b, m_[k].data(), v_[k].data(), coeffs);
            continue;
        }
#endif
        adamScalar(b, m_[k].data(), v_[k].data(), coeffs, 0);
    }
}

void
Adam::setState(const State &state)
{
    if (state.m.size() != m_.size() || state.v.size() != v_.size())
        throw std::invalid_argument("Adam::setState: block count mismatch");
    for (std::size_t k = 0; k < m_.size(); ++k) {
        if (state.m[k].size() != m_[k].size() ||
            state.v[k].size() != v_[k].size()) {
            throw std::invalid_argument(
                "Adam::setState: block size mismatch");
        }
    }
    t_ = state.t;
    m_ = state.m;
    v_ = state.v;
}

} // namespace autocat
