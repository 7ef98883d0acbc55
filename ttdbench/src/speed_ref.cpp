#include "speed_ref.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include <sys/mman.h>

#include "trace.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define TTDBENCH_AVX2 1
#include <immintrin.h>
#endif

namespace ttdbench {

namespace {

using MatmulFn = void (*)(float *, const float *, const float *,
                          std::size_t, std::size_t, std::size_t);

/** c (m x n) = a (m x k) * b (k x n), row-major. */
void
matmulPlain(float *c, const float *a, const float *b, std::size_t m,
            std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; ++i) {
        float *ci = c + i * n;
        std::fill(ci, ci + n, 0.0f);
        for (std::size_t p = 0; p < k; ++p) {
            const float aip = a[i * k + p];
            const float *bp = b + p * n;
            for (std::size_t j = 0; j < n; ++j)
                ci[j] += aip * bp[j];
        }
    }
}

#if TTDBENCH_AVX2
/** matmulPlain for m % 4 == 0 and n % 16 == 0: a 4 x 16 block of c
 *  stays in registers while k streams by. */
__attribute__((target("avx2,fma"))) void
matmulAvx2(float *c, const float *a, const float *b, std::size_t m,
           std::size_t k, std::size_t n)
{
    for (std::size_t i = 0; i < m; i += 4) {
        for (std::size_t j = 0; j < n; j += 16) {
            __m256 acc[4][2];
            for (auto &row : acc)
                row[0] = row[1] = _mm256_setzero_ps();
            for (std::size_t p = 0; p < k; ++p) {
                const __m256 b0 = _mm256_loadu_ps(b + p * n + j);
                const __m256 b1 = _mm256_loadu_ps(b + p * n + j + 8);
                for (std::size_t r = 0; r < 4; ++r) {
                    const __m256 av = _mm256_set1_ps(a[(i + r) * k + p]);
                    acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
                    acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
                }
            }
            for (std::size_t r = 0; r < 4; ++r) {
                _mm256_storeu_ps(c + (i + r) * n + j, acc[r][0]);
                _mm256_storeu_ps(c + (i + r) * n + j + 8, acc[r][1]);
            }
        }
    }
}
#endif

constexpr std::size_t kMnMatrices = 7;
constexpr std::size_t kNnMatrices = 9;

/** The step's matrices, carved out of one allocation. */
struct StepMatrices
{
    std::size_t m, n;
    float *x, *xt, *h, *ht, *y, *dy, *dh;            // m x n
    float *w1, *w2, *w2t, *g1, *g2, *m1, *v1, *m2, *v2;  // n x n

    StepMatrices(float *mem, std::size_t m_, std::size_t n_) : m(m_), n(n_)
    {
        for (float **p : {&x, &xt, &h, &ht, &y, &dy, &dh}) {
            *p = mem;
            mem += m * n;
        }
        for (float **p : {&w1, &w2, &w2t, &g1, &g2, &m1, &v1, &m2, &v2}) {
            *p = mem;
            mem += n * n;
        }
    }
};

void
transpose(float *out, const float *in, std::size_t rows, std::size_t cols)
{
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            out[j * rows + i] = in[i * cols + j];
}

/** Adam's moment updates and step over @p count weights, with a zero
 *  step size. */
void
adamZero(float *w, const float *g, float *m, float *v, std::size_t count)
{
    constexpr float kStep = 0.0f;
    for (std::size_t i = 0; i < count; ++i) {
        m[i] = 0.9f * m[i] + 0.1f * g[i];
        v[i] = 0.999f * v[i] + 0.001f * g[i] * g[i];
        w[i] -= kStep * m[i] / (std::sqrt(v[i]) + 1e-8f);
    }
}

/** One forward + backward + update of h = tanh(x W1), y = h W2 against
 *  a fixed output gradient dy. Inlined into each caller, so the
 *  element-wise loops compile for the caller's target. */
#if defined(__GNUC__)
__attribute__((always_inline))
#endif
inline void
trainStep(const StepMatrices &s, MatmulFn matmul)
{
    const std::size_t m = s.m, n = s.n;
    matmul(s.h, s.x, s.w1, m, n, n);
    for (std::size_t i = 0; i < m * n; ++i)
        s.h[i] = std::tanh(s.h[i]);
    matmul(s.y, s.h, s.w2, m, n, n);
    transpose(s.ht, s.h, m, n);
    transpose(s.xt, s.x, m, n);
    transpose(s.w2t, s.w2, n, n);
    matmul(s.g2, s.ht, s.dy, n, m, n);
    matmul(s.dh, s.dy, s.w2t, m, n, n);
    for (std::size_t i = 0; i < m * n; ++i)
        s.dh[i] *= 1.0f - s.h[i] * s.h[i];
    matmul(s.g1, s.xt, s.dh, n, m, n);
    adamZero(s.w1, s.g1, s.m1, s.v1, n * n);
    adamZero(s.w2, s.g2, s.m2, s.v2, n * n);
}

#if TTDBENCH_AVX2
__attribute__((target("avx2,fma"))) void
trainStepAvx2(const StepMatrices &s)
{
    trainStep(s, matmulAvx2);
}

const bool kHaveAvx2 =
    __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#endif

std::size_t
roundUp(std::size_t v, std::size_t to)
{
    return (std::max<std::size_t>(v, 1) + to - 1) / to * to;
}

} // namespace

SpeedRef::SpeedRef(std::size_t rows, std::size_t n)
    : m_(roundUp(rows, 4)), n_(roundUp(n, 16)),
      // Five m x n x n matmuls, two FLOPs per multiply-add.
      flops_(10.0 * static_cast<double>(m_) * static_cast<double>(n_) *
             static_cast<double>(n_)),
      mem_(kMnMatrices * m_ * n_ + kNnMatrices * n_ * n_, 0.0f)
{
    // Values stay moderate (no overflow, no denormals) and the weights
    // never change, so every step does the same arithmetic.
    const StepMatrices s(mem_.data(), m_, n_);
    std::fill(s.x, s.x + m_ * n_, 0.3f);
    std::fill(s.dy, s.dy + m_ * n_, 1e-3f);
    std::fill(s.w1, s.w1 + n_ * n_, 0.5f / static_cast<float>(n_));
    std::fill(s.w2, s.w2 + n_ * n_, 0.5f / static_cast<float>(n_));
    step();  // fault the pages in
}

void
SpeedRef::step()
{
    const StepMatrices s(mem_.data(), m_, n_);
#if TTDBENCH_AVX2
    // The program's learner runs AVX2+FMA matmuls where it can; the
    // reference does the same.
    if (kHaveAvx2)
        return trainStepAvx2(s);
#endif
    trainStep(s, matmulPlain);
}

namespace {

/** Map, touch and unmap kFaultPages anonymous pages, 64 at a time. */
void
faultPages()
{
    constexpr std::size_t kPage = 4096, kChunk = 64;
    for (int done = 0; done < SpeedRef::kFaultPages;
         done += static_cast<int>(kChunk)) {
        void *p = mmap(nullptr, kChunk * kPage, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            return;
        auto *bytes = static_cast<volatile std::uint8_t *>(p);
        for (std::size_t i = 0; i < kChunk; ++i)
            bytes[i * kPage] = 1;
        munmap(p, kChunk * kPage);
    }
}

template <typename F>
double
fastestOfThree(F &&f)
{
    double best = 0.0;
    for (int i = 0; i < 3; ++i) {
        const double t0 = nowS();
        f();
        const double dt = nowS() - t0;
        best = i == 0 ? dt : std::min(best, dt);
    }
    return best;
}

} // namespace

HostSpeed
SpeedRef::sample()
{
    HostSpeed s;
    s.stepS = fastestOfThree([this] { step(); });
    s.faultS = fastestOfThree(faultPages);
    return s;
}

WorkTimes
normalized(const WorkTimes &work, const HostSpeed &before,
           const HostSpeed &after, double ref_step_s)
{
    WorkTimes n;
    n.userS = work.userS * ref_step_s / (0.5 * (before.stepS + after.stepS));
    n.sysS = work.sysS * (SpeedRef::kFaultPages * SpeedRef::kRefFaultS) /
             (0.5 * (before.faultS + after.faultS));
    const double waiting = std::max(0.0, work.wallS - work.userS - work.sysS);
    n.wallS = n.userS + n.sysS + waiting;
    return n;
}

} // namespace ttdbench
