#include "rl/mat.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define AUTOCAT_MAT_X86 1
#include <immintrin.h>
#endif

namespace autocat {

namespace {

/*
 * Portable scalar kernels (namespace scalar, below): the fallback on
 * non-x86 hosts or under AUTOCAT_MAT_PORTABLE=1, and the definition of
 * each kernel's canonical accumulation order, one element at a time.
 * The AVX2 kernels compute the same orders: both backends give the
 * same bits. Without -mfma, std::fma is a libm call, so on x86 each
 * kernel is also built with FMA, picked at load time (not under TSan,
 * whose runtime starts after that choice and crashes in it).
 */

#if AUTOCAT_MAT_X86 && !defined(__SANITIZE_THREAD__)
#define AUTOCAT_FMA_CLONES __attribute__((target_clones("fma", "default")))
#else
#define AUTOCAT_FMA_CLONES
#endif

/**
 * s + a[0]*b[0] + ... + a[count-1]*b[count-1] (strides @p as, @p bs) in
 * tail order: added in order, products in whole groups of four rounded
 * before they are added (volatile: never contracted), the last
 * count % 4 fused.
 */
inline float
tailOrder(float s, const float *a, std::size_t as, const float *b,
          std::size_t bs, std::size_t count)
{
    std::size_t p = 0;
    for (; p + 4 <= count; p += 4)
        for (std::size_t q = p; q < p + 4; ++q) {
            volatile float prod = a[q * as] * b[q * bs];
            s += prod;
        }
    for (; p < count; ++p)
        s = std::fma(a[p * as], b[p * bs], s);
    return s;
}

/**
 * dot(a, b) over k floats in dot8 order: two 8-lane fma accumulators
 * take the 8-float blocks in turn (so an odd last block goes to the
 * first), their lane-wise sum is reduced as (l, l+4) -> (l, l+2) ->
 * (0, 1), then the k % 8 remainder follows in tail order.
 */
inline float
dot8(const float *a, const float *b, std::size_t k)
{
    float acc[2][8] = {};
    std::size_t p = 0;
    for (; p + 8 <= k; p += 8) {
        float *lanes = acc[p / 8 % 2];
        for (std::size_t l = 0; l < 8; ++l)
            lanes[l] = std::fma(a[p + l], b[p + l], lanes[l]);
    }
    float h[4];
    for (std::size_t l = 0; l < 4; ++l)
        h[l] = (acc[0][l] + acc[1][l]) + (acc[0][l + 4] + acc[1][l + 4]);
    return tailOrder((h[0] + h[2]) + (h[1] + h[3]), a + p, 1, b + p, 1,
                     k - p);
}

/**
 * m rows of y = x * w^T + bias (x: m x k, w: n x k), each element in
 * dot8 order, then ReLU as `v < 0 ? 0 : v` (-0 and NaN pass through).
 */
inline void
dotGemmRows(float *y, const float *x, const float *w, std::size_t m,
            std::size_t n, std::size_t k, const float *bias, bool relu)
{
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            float v = dot8(x + i * k, w + j * k, k) + bias[j];
            if (relu && v < 0.0f)
                v = 0.0f;
            y[i * n + j] = v;
        }
}

/**
 * Writes the nonzeros of x[begin, end) to @p col / @p val (room for
 * end - begin entries) without a branch per element; returns their
 * count.
 */
std::size_t
scanRowPortable(const float *x, std::size_t begin, std::size_t end,
                std::uint32_t *col, float *val)
{
    std::size_t n = 0;
    for (std::size_t p = begin; p < end; ++p) {
        col[n] = static_cast<std::uint32_t>(p);
        val[n] = x[p];
        n += x[p] != 0.0f;
    }
    return n;
}

#if AUTOCAT_MAT_X86

/*
 * AVX2+FMA kernels. Compiled for every x86-64 build via the function
 * target attribute and selected at runtime (useAvx2() below), so the
 * translation unit itself needs no -mavx2 flag and the binary still
 * runs on pre-AVX2 hardware.
 *
 * Every output element has one canonical accumulation order,
 * independent of the tile, panel and batch size that produce it: the
 * order the portable kernels above compute one element at a time.
 *
 *  - Broadcast kernels (matmul, matmulTransA): c(i,j) is one fma
 *    chain, sequential over p. Exception: matmul's n % 16 tail
 *    columns add their k products in tail order (below).
 *  - Dot kernel (linearForward): dot8 order (see dot8). Bias is added
 *    after, then ReLU. Since no order depends on the batch, it is
 *    row-pure.
 *
 * Tail order (see tailOrder) is the order GCC's in-order vectorization
 * gave the earlier scalar tail loops, spelled out so it no longer
 * depends on the compiler.
 */

/**
 * @p v, opaque to the optimizer: a product passed through here is
 * rounded on its own and never contracted into the add that follows.
 */
template <typename V>
__attribute__((target("avx2,fma"))) inline V
rounded(V v)
{
    __asm__("" : "+x"(v));
    return v;
}

/** s + a[0]*b[0] + ... + a[count-1]*b[count-1] in tail order. */
__attribute__((target("avx2,fma"))) inline float
dotTail(float s, const float *a, const float *b, std::size_t count)
{
    std::size_t p = 0;
    for (; p + 4 <= count; p += 4)
        for (std::size_t q = p; q < p + 4; ++q)
            s += rounded(a[q] * b[q]);
    for (; p < count; ++p)
        s = std::fma(a[p], b[p], s);
    return s;
}

__attribute__((target("avx2,fma"))) inline float
hsum8(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_add_ps(lo, hi);
    __m128 sh = _mm_movehl_ps(lo, lo);
    lo = _mm_add_ps(lo, sh);
    sh = _mm_shuffle_ps(lo, lo, 0x1);
    lo = _mm_add_ss(lo, sh);
    return _mm_cvtss_f32(lo);
}

/**
 * The vector part of C dot products dot(a, b[c]) in dot8 order: sum[c]
 * receives acc0 + acc1, and the return value is how many of the k
 * floats that covered (the rest is the tail). The block only
 * interleaves independent accumulations: 2C fma chains for ILP, each
 * vector of the A row loaded once for C rows of B.
 */
template <int C>
__attribute__((target("avx2,fma"))) inline std::size_t
dotSums(const float *a, const float *const *b, std::size_t k,
        __m256 (&sum)[C])
{
    __m256 acc0[C], acc1[C];
    for (int c = 0; c < C; ++c)
        acc0[c] = acc1[c] = _mm256_setzero_ps();
    std::size_t p = 0;
    for (; p + 16 <= k; p += 16) {
        const __m256 a0 = _mm256_loadu_ps(a + p);
        const __m256 a1 = _mm256_loadu_ps(a + p + 8);
        for (int c = 0; c < C; ++c) {
            acc0[c] = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b[c] + p), acc0[c]);
            acc1[c] =
                _mm256_fmadd_ps(a1, _mm256_loadu_ps(b[c] + p + 8), acc1[c]);
        }
    }
    if (p + 8 <= k) {
        const __m256 a0 = _mm256_loadu_ps(a + p);
        for (int c = 0; c < C; ++c)
            acc0[c] = _mm256_fmadd_ps(a0, _mm256_loadu_ps(b[c] + p), acc0[c]);
        p += 8;
    }
    for (int c = 0; c < C; ++c)
        sum[c] = _mm256_add_ps(acc0[c], acc1[c]);
    return p;
}

/**
 * hsum8 of four vectors at once: lane c of the result is hsum8(v[c]),
 * the same additions with the same operands in the same order.
 */
__attribute__((target("avx2,fma"))) inline __m128
hsum8x4(const __m256 (&v)[4])
{
    // (l, l+4): [t0 | t1] and [t2 | t3], t_c[l] = v_c[l] + v_c[l+4].
    const __m256 t01 =
        _mm256_add_ps(_mm256_permute2f128_ps(v[0], v[1], 0x20),
                      _mm256_permute2f128_ps(v[0], v[1], 0x31));
    const __m256 t23 =
        _mm256_add_ps(_mm256_permute2f128_ps(v[2], v[3], 0x20),
                      _mm256_permute2f128_ps(v[2], v[3], 0x31));
    // (l, l+2): [u00 u01 u20 u21 | u10 u11 u30 u31], u_cl = t_c[l] +
    // t_c[l+2].
    const __m256 u = _mm256_add_ps(_mm256_shuffle_ps(t01, t23, 0x44),
                                   _mm256_shuffle_ps(t01, t23, 0xEE));
    // (0, 1): [r0 r2 r0 r2 | r1 r3 r1 r3], r_c = u_c0 + u_c1.
    const __m256 r = _mm256_add_ps(_mm256_shuffle_ps(u, u, 0x88),
                                   _mm256_shuffle_ps(u, u, 0xDD));
    return _mm_unpacklo_ps(_mm256_castps256_ps128(r),
                           _mm256_extractf128_ps(r, 1));
}

/** dotTail for four dot products at once: lane c runs a against b[c]. */
__attribute__((target("avx2,fma"))) inline __m128
dotTail4(__m128 s, const float *a, const float *const *b, std::size_t p,
         std::size_t k)
{
    const auto column = [b](std::size_t q) {
        return _mm_setr_ps(b[0][q], b[1][q], b[2][q], b[3][q]);
    };
    for (; p + 4 <= k; p += 4)
        for (std::size_t q = p; q < p + 4; ++q)
            s = _mm_add_ps(s, rounded(_mm_mul_ps(_mm_set1_ps(a[q]),
                                                 column(q))));
    for (; p < k; ++p)
        s = _mm_fmadd_ps(_mm_set1_ps(a[p]), column(p), s);
    return s;
}

/**
 * Outputs of a dot kernel: @p bias added after the dot, then ReLU as a
 * select — a branch on the output's sign mispredicts about half the
 * time. Exactly `v < 0 ? 0 : v` per lane, so -0 and NaN pass through
 * as in dotGemmRows.
 */
__attribute__((target("avx2,fma"))) inline __m128
dotEpilogue(__m128 v, __m128 bias, bool relu)
{
    v = _mm_add_ps(v, bias);
    if (relu)
        v = _mm_andnot_ps(_mm_cmplt_ps(v, _mm_setzero_ps()), v);
    return v;
}

/** Floats of B per column panel: 16 KB, well inside L1. */
constexpr std::size_t kPanelFloats = 4096;

/**
 * C = A * B^T + bias (A: m x k, B: n x k), optionally ReLU-clamped. B is
 * walked in L1-sized panels of rows, and every row of A passes a panel
 * before the next one is loaded, so B streams from L2 once per call
 * rather than once per row of A. Within a panel, 1 x 4 blocks share
 * each A vector; leftover columns run one at a time. (A 2 x 2 register
 * block measured within a few percent of 1 x 4 at 500 x {128, 137,
 * 251} -> 128, so one block shape serves training batches and the
 * one-row inference forward alike.)
 */
__attribute__((target("avx2,fma"))) void
dotGemmAvx2(float *c, const float *a, const float *b, std::size_t m,
            std::size_t n, std::size_t k, const float *bias, bool relu)
{
    const std::size_t panel = std::max<std::size_t>(
        4, kPanelFloats / std::max<std::size_t>(k, 1) / 4 * 4);
    for (std::size_t j0 = 0; j0 < n; j0 += panel) {
        const std::size_t j1 = std::min(n, j0 + panel);
        for (std::size_t i = 0; i < m; ++i) {
            const float *arow = a + i * k;
            float *crow = c + i * n;
            std::size_t j = j0;
            for (; j + 4 <= j1; j += 4) {
                const float *brows[4] = {b + j * k, b + (j + 1) * k,
                                         b + (j + 2) * k, b + (j + 3) * k};
                __m256 sum[4];
                const std::size_t p = dotSums<4>(arow, brows, k, sum);
                const __m128 v = dotTail4(hsum8x4(sum), arow, brows, p, k);
                _mm_storeu_ps(crow + j,
                              dotEpilogue(v, _mm_loadu_ps(bias + j), relu));
            }
            for (; j < j1; ++j) {
                const float *brow = b + j * k;
                __m256 sum[1];
                const std::size_t p = dotSums<1>(arow, &brow, k, sum);
                const float v =
                    dotTail(hsum8(sum[0]), arow + p, brow + p, k - p);
                crow[j] = _mm_cvtss_f32(
                    dotEpilogue(_mm_set_ss(v), _mm_set_ss(bias[j]), relu));
            }
        }
    }
}

/**
 * Steps p in [p0, p1) of an MR x 8NV broadcast tile (see gemmTile):
 * fused, or with each product rounded before its add.
 */
template <int MR, int NV, bool Masked, bool Fused>
__attribute__((target("avx2,fma"))) inline void
gemmSteps(__m256 (&acc)[MR][NV], const float *a, std::size_t a_rs,
          std::size_t a_cs, const float *b, std::size_t n, __m256i mask,
          std::size_t p0, std::size_t p1)
{
    for (std::size_t p = p0; p < p1; ++p) {
        const float *brow = b + p * n;
        __m256 bv[NV];
        for (int v = 0; v < NV; ++v)
            bv[v] = Masked && v == NV - 1
                        ? _mm256_maskload_ps(brow + 8 * v, mask)
                        : _mm256_loadu_ps(brow + 8 * v);
        const float *ap = a + p * a_cs;
        for (int r = 0; r < MR; ++r) {
            const __m256 av =
                _mm256_set1_ps(ap[static_cast<std::size_t>(r) * a_rs]);
            for (int v = 0; v < NV; ++v)
                acc[r][v] = Fused ? _mm256_fmadd_ps(av, bv[v], acc[r][v])
                                  : _mm256_add_ps(acc[r][v],
                                                  rounded(_mm256_mul_ps(
                                                      av, bv[v])));
        }
    }
}

/**
 * An MR x 8NV block of C = op(A) * B lives in registers while the
 * shared dimension streams by. @p a and @p b point at the block's
 * first row of A and first column of B; A(r, p) is a[r * a_rs +
 * p * a_cs]. With Masked, the last 8-lane vector only loads and stores
 * the columns set in @p mask. Products with p < @p unfused are rounded
 * before they are added (tail order), the rest fused.
 */
template <int MR, int NV, bool Masked>
__attribute__((target("avx2,fma"))) inline void
gemmTile(float *c, const float *a, std::size_t a_rs, std::size_t a_cs,
         const float *b, std::size_t k, std::size_t n, __m256i mask,
         std::size_t unfused)
{
    __m256 acc[MR][NV];
    for (int r = 0; r < MR; ++r)
        for (int v = 0; v < NV; ++v)
            acc[r][v] = _mm256_setzero_ps();
    gemmSteps<MR, NV, Masked, false>(acc, a, a_rs, a_cs, b, n, mask, 0,
                                     unfused);
    gemmSteps<MR, NV, Masked, true>(acc, a, a_rs, a_cs, b, n, mask,
                                    unfused, k);
    for (int r = 0; r < MR; ++r) {
        float *crow = c + static_cast<std::size_t>(r) * n;
        for (int v = 0; v < NV; ++v) {
            if (Masked && v == NV - 1)
                _mm256_maskstore_ps(crow + 8 * v, mask, acc[r][v]);
            else
                _mm256_storeu_ps(crow + 8 * v, acc[r][v]);
        }
    }
}

/** Lanes 0..w-1 set. */
__attribute__((target("avx2,fma"))) inline __m256i
laneMask(std::size_t w)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(w)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/**
 * MR rows of C = op(A) * B from row i: 16-column tiles, then one tile
 * for the n % 16 tail columns (a full and a masked vector, or one
 * masked vector), whose products p < @p tail_unfused are rounded before
 * they are added.
 */
template <int MR>
__attribute__((target("avx2,fma"))) inline void
gemmRows(float *c, const float *a, std::size_t a_rs, std::size_t a_cs,
         const float *b, std::size_t i, std::size_t k, std::size_t n,
         std::size_t tail_unfused)
{
    float *crow = c + i * n;
    const float *arow = a + i * a_rs;
    const __m256i all = _mm256_set1_epi32(-1);
    std::size_t j = 0;
    for (; j + 16 <= n; j += 16)
        gemmTile<MR, 2, false>(crow + j, arow, a_rs, a_cs, b + j, k, n, all,
                               0);
    const std::size_t rest = n - j;
    if (rest > 8)
        gemmTile<MR, 2, true>(crow + j, arow, a_rs, a_cs, b + j, k, n,
                              laneMask(rest - 8), tail_unfused);
    else if (rest > 0)
        gemmTile<MR, 1, true>(crow + j, arow, a_rs, a_cs, b + j, k, n,
                              laneMask(rest), tail_unfused);
}

/** C = op(A) * B, C: m x n, shared dimension k (see gemmTile). */
__attribute__((target("avx2,fma"))) void
gemmAvx2(float *c, const float *a, std::size_t a_rs, std::size_t a_cs,
         const float *b, std::size_t m, std::size_t k, std::size_t n,
         std::size_t tail_unfused)
{
    std::size_t i = 0;
    for (; i + 4 <= m; i += 4)
        gemmRows<4>(c, a, a_rs, a_cs, b, i, k, n, tail_unfused);
    for (; i < m; ++i)
        gemmRows<1>(c, a, a_rs, a_cs, b, i, k, n, tail_unfused);
}

/** scanRowPortable, eight floats per compare. */
__attribute__((target("avx2,fma"))) std::size_t
scanRowAvx2(const float *x, std::size_t cols, std::uint32_t *col, float *val)
{
    std::size_t n = 0, p = 0;
    for (; p + 8 <= cols; p += 8) {
        // Unordered: a NaN counts as nonzero, as in the scalar test.
        unsigned bits = static_cast<unsigned>(_mm256_movemask_ps(
            _mm256_cmp_ps(_mm256_loadu_ps(x + p), _mm256_setzero_ps(),
                          _CMP_NEQ_UQ)));
        for (; bits != 0; bits &= bits - 1) {
            const std::size_t q = p + static_cast<unsigned>(__builtin_ctz(bits));
            col[n] = static_cast<std::uint32_t>(q);
            val[n++] = x[q];
        }
    }
    return n + scanRowPortable(x, p, cols, col + n, val + n);
}

/**
 * linearForward on a sparse A in dot8 order (C = A * B^T, B: n x k).
 * Row i's nonzeros at p < k / 8 * 8 are fused into the running sum of
 * slot p % 16 (slots 0-7 are the dense kernel's first accumulator,
 * 8-15 its second); the slots are then reduced as in hsum8, the k % 8
 * tail nonzeros added in tail order, then bias and ReLU. Vectorized
 * over 8 outputs at a time against B^T, transposed once per call.
 */
__attribute__((target("avx2,fma"))) void
sparseDotGemmAvx2(float *c, const SparseRows &a, const float *b,
                  std::size_t n, const float *bias, bool relu)
{
    const std::size_t k = a.cols;
    const std::size_t np = (n + 7) / 8 * 8;
    // B^T padded to np columns, the padded bias, 16 slot rows and a
    // zero row standing in for the slots a row never touches.
    thread_local std::vector<float> bt, pbias, slots, zeros;
    bt.assign(k * np, 0.0f);
    for (std::size_t j = 0; j < n; ++j)
        for (std::size_t p = 0; p < k; ++p)
            bt[p * np + j] = b[j * k + p];
    pbias.assign(np, -0.0f);
    std::copy(bias, bias + n, pbias.begin());
    slots.resize(16 * np);
    zeros.assign(np, 0.0f);

    const std::size_t k8 = k / 8 * 8;
    const std::size_t rounded_end = k8 + (k - k8) / 4 * 4;
    const __m256 zero = _mm256_setzero_ps();
    for (std::size_t i = 0; i < a.rows; ++i) {
        std::uint32_t e = a.rowStart[i];
        const std::uint32_t end = a.rowStart[i + 1];
        const float *slot[16];
        for (std::size_t l = 0; l < 16; ++l)
            slot[l] = zeros.data();
        for (; e < end && a.rowCol[e] < k8; ++e) {
            const std::size_t p = a.rowCol[e];
            const __m256 v = _mm256_set1_ps(a.rowVal[e]);
            const float *w = bt.data() + p * np;
            float *acc = slots.data() + (p % 16) * np;
            const float *in = slot[p % 16];  // zeros until first touched
            for (std::size_t q = 0; q < np; q += 8)
                _mm256_storeu_ps(acc + q,
                                 _mm256_fmadd_ps(v, _mm256_loadu_ps(w + q),
                                                 _mm256_loadu_ps(in + q)));
            slot[p % 16] = acc;
        }
        const std::uint32_t tail = e;
        float *crow = c + i * n;
        for (std::size_t q = 0; q < np; q += 8) {
            __m256 sum[8];
            for (std::size_t l = 0; l < 8; ++l)
                sum[l] = _mm256_add_ps(_mm256_loadu_ps(slot[l] + q),
                                       _mm256_loadu_ps(slot[l + 8] + q));
            for (std::size_t l = 0; l < 4; ++l)  // (l, l+4)
                sum[l] = _mm256_add_ps(sum[l], sum[l + 4]);
            for (std::size_t l = 0; l < 2; ++l)  // (l, l+2)
                sum[l] = _mm256_add_ps(sum[l], sum[l + 2]);
            __m256 r = _mm256_add_ps(sum[0], sum[1]);  // (0, 1)
            for (e = tail; e < end; ++e) {
                const std::size_t p = a.rowCol[e];
                const __m256 v = _mm256_set1_ps(a.rowVal[e]);
                const __m256 w = _mm256_loadu_ps(bt.data() + p * np + q);
                r = p < rounded_end
                        ? _mm256_add_ps(r, rounded(_mm256_mul_ps(v, w)))
                        : _mm256_fmadd_ps(v, w, r);
            }
            r = _mm256_add_ps(r, _mm256_loadu_ps(pbias.data() + q));
            if (relu)
                r = _mm256_andnot_ps(_mm256_cmp_ps(r, zero, _CMP_LT_OQ), r);
            if (q + 8 <= n)
                _mm256_storeu_ps(crow + q, r);
            else
                _mm256_maskstore_ps(crow + q, laneMask(n - q), r);
        }
    }
}

/**
 * Column p's outputs j in [j0, j0 + 8 NV) of C = A^T * B for a sparse
 * B: one fma chain per output over the column's nonzero rows, in row
 * order — the dense matmulTransA chain without its zero terms.
 */
template <int NV>
__attribute__((target("avx2,fma"))) inline void
sparseDwBlock(float *c, const float *a, std::size_t m, const SparseRows &b,
              std::size_t p, std::size_t j0)
{
    __m256 acc[NV];
    for (int q = 0; q < NV; ++q)
        acc[q] = _mm256_setzero_ps();
    for (std::uint32_t e = b.colStart[p]; e < b.colStart[p + 1]; ++e) {
        const float *arow = a + static_cast<std::size_t>(b.colRow[e]) * m + j0;
        const __m256 v = _mm256_set1_ps(b.colVal[e]);
        for (int q = 0; q < NV; ++q)
            acc[q] = _mm256_fmadd_ps(_mm256_loadu_ps(arow + 8 * q), v, acc[q]);
    }
    float out[8 * NV];
    for (int q = 0; q < NV; ++q)
        _mm256_storeu_ps(out + 8 * q, acc[q]);
    for (std::size_t q = 0; q < 8 * NV; ++q)
        c[(j0 + q) * b.cols + p] = out[q];
}

/** C = A^T * B for a sparse B (A: k x m), written column by column. */
__attribute__((target("avx2,fma"))) void
sparseMatmulTransAAvx2(float *c, const float *a, std::size_t m,
                       const SparseRows &b)
{
    const std::size_t n = b.cols;
    std::fill(c, c + m * n, 0.0f);
    for (std::size_t p = 0; p < n; ++p) {
        if (b.colStart[p] == b.colStart[p + 1])
            continue;
        std::size_t j = 0;
        for (; j + 64 <= m; j += 64)
            sparseDwBlock<8>(c, a, m, b, p, j);
        for (; j + 8 <= m; j += 8)
            sparseDwBlock<1>(c, a, m, b, p, j);
        for (; j < m; ++j) {
            float s = 0.0f;
            for (std::uint32_t e = b.colStart[p]; e < b.colStart[p + 1]; ++e)
                s = std::fma(a[b.colRow[e] * m + j], b.colVal[e], s);
            c[j * n + p] = s;
        }
    }
}

#endif // AUTOCAT_MAT_X86

} // namespace

bool
useAvx2()
{
#if AUTOCAT_MAT_X86
    static const bool use = [] {
        const char *force = std::getenv("AUTOCAT_MAT_PORTABLE");
        if (force && force[0] == '1')
            return false;
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") != 0;
    }();
    return use;
#else
    return false;
#endif
}

const char *
matmulBackend()
{
    return useAvx2() ? "avx2+fma" : "portable";
}

namespace scalar {

AUTOCAT_FMA_CLONES void
matmulInto(Matrix &c, const Matrix &a, const Matrix &b)
{
    assert(a.cols() == b.rows());
    assert(&c != &a && &c != &b);
    const std::size_t k = a.cols(), n = b.cols();
    c.resizeUninit(a.rows(), n);
    // One fma chain over p per element, p-outer; the n % 16 tail
    // columns in tail order.
    const std::size_t tiled = n / 16 * 16;
    for (std::size_t i = 0; i < a.rows(); ++i) {
        float *crow = c.rowPtr(i);
        const float *arow = a.rowPtr(i);
        std::fill(crow, crow + tiled, 0.0f);
        for (std::size_t p = 0; p < k; ++p) {
            const float *brow = b.rowPtr(p);
            for (std::size_t j = 0; j < tiled; ++j)
                crow[j] = std::fma(arow[p], brow[j], crow[j]);
        }
        for (std::size_t j = tiled; j < n; ++j)
            crow[j] = tailOrder(0.0f, arow, 1, b.data() + j, n, k);
    }
}

AUTOCAT_FMA_CLONES void
matmulTransAInto(Matrix &c, const Matrix &a, const Matrix &b)
{
    assert(a.rows() == b.rows());
    assert(&c != &a && &c != &b);
    const std::size_t m = a.cols(), n = b.cols();
    c.resizeUninit(m, n);
    c.zero();
    // One fma chain over p per element, p-outer.
    for (std::size_t p = 0; p < a.rows(); ++p) {
        const float *brow = b.rowPtr(p);
        for (std::size_t i = 0; i < m; ++i) {
            float *crow = c.rowPtr(i);
            const float av = a(p, i);
            for (std::size_t j = 0; j < n; ++j)
                crow[j] = std::fma(av, brow[j], crow[j]);
        }
    }
}

AUTOCAT_FMA_CLONES void
linearForwardInto(Matrix &y, const Matrix &x, const Matrix &w,
                  const std::vector<float> &bias, bool relu)
{
    assert(x.cols() == w.cols());
    assert(bias.size() == w.rows());
    assert(&y != &x && &y != &w);
    y.resizeUninit(x.rows(), w.rows());
    dotGemmRows(y.data(), x.data(), w.data(), x.rows(), w.rows(), x.cols(),
                bias.data(), relu);
}

AUTOCAT_FMA_CLONES void
sparseLinearForwardInto(Matrix &y, const SparseRows &x, const Matrix &w,
                        const std::vector<float> &bias, bool relu)
{
    assert(x.cols == w.cols());
    assert(bias.size() == w.rows());
    assert(&y != &w);
    y.resizeUninit(x.rows, w.rows());
    // Each row scattered back into a dense row of +0s: the dense dot8
    // gives the same bits as it would on the -0s that became +0 (see
    // mat.hpp).
    std::vector<float> row(x.cols);
    for (std::size_t i = 0; i < x.rows; ++i) {
        std::fill(row.begin(), row.end(), 0.0f);
        for (std::uint32_t e = x.rowStart[i]; e < x.rowStart[i + 1]; ++e)
            row[x.rowCol[e]] = x.rowVal[e];
        dotGemmRows(y.rowPtr(i), row.data(), w.data(), 1, w.rows(), x.cols,
                    bias.data(), relu);
    }
}

AUTOCAT_FMA_CLONES void
sparseMatmulTransAInto(Matrix &c, const Matrix &a, const SparseRows &b)
{
    assert(a.rows() == b.rows);
    assert(&c != &a);
    const std::size_t m = a.cols();
    c.resizeUninit(m, b.cols);
    // One fma chain per output over column p's nonzero rows, in order,
    // kept for all m outputs at once in col.
    std::vector<float> col(m);
    for (std::size_t p = 0; p < b.cols; ++p) {
        std::fill(col.begin(), col.end(), 0.0f);
        for (std::uint32_t e = b.colStart[p]; e < b.colStart[p + 1]; ++e) {
            const float *arow = a.rowPtr(b.colRow[e]);
            for (std::size_t j = 0; j < m; ++j)
                col[j] = std::fma(arow[j], b.colVal[e], col[j]);
        }
        for (std::size_t j = 0; j < m; ++j)
            c(j, p) = col[j];
    }
}

} // namespace scalar

void
matmulInto(Matrix &c, const Matrix &a, const Matrix &b)
{
    if (!useAvx2())
        return scalar::matmulInto(c, a, b);
#if AUTOCAT_MAT_X86
    assert(a.cols() == b.rows());
    assert(&c != &a && &c != &b);
    c.resizeUninit(a.rows(), b.cols());
    // Tail columns in tail order: the first k / 4 * 4 products rounded.
    gemmAvx2(c.data(), a.data(), a.cols(), 1, b.data(), a.rows(), a.cols(),
             b.cols(), a.cols() / 4 * 4);
#endif
}

void
matmulTransAInto(Matrix &c, const Matrix &a, const Matrix &b)
{
    if (!useAvx2())
        return scalar::matmulTransAInto(c, a, b);
#if AUTOCAT_MAT_X86
    assert(a.rows() == b.rows());
    assert(&c != &a && &c != &b);
    c.resizeUninit(a.cols(), b.cols());
    gemmAvx2(c.data(), a.data(), 1, a.cols(), b.data(), a.cols(), a.rows(),
             b.cols(), 0);
#endif
}

void
linearForwardInto(Matrix &y, const Matrix &x, const Matrix &w,
                  const std::vector<float> &bias, bool relu)
{
    if (!useAvx2())
        return scalar::linearForwardInto(y, x, w, bias, relu);
#if AUTOCAT_MAT_X86
    assert(x.cols() == w.cols());
    assert(bias.size() == w.rows());
    assert(&y != &x && &y != &w);
    y.resizeUninit(x.rows(), w.rows());
    dotGemmAvx2(y.data(), x.data(), w.data(), x.rows(), w.rows(), x.cols(),
                bias.data(), relu);
#endif
}

void
sparseRowsInto(SparseRows &s, const Matrix &x)
{
    const std::size_t rows = x.rows();
    const std::size_t cols = x.cols();
    assert(rows * cols <= UINT32_MAX);
    s.rows = rows;
    s.cols = cols;
    s.rowStart.resize(rows + 1);
    std::size_t nnz = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        s.rowStart[r] = static_cast<std::uint32_t>(nnz);
        // Room for a dense row; the capacity settles near nnz + cols.
        if (s.rowCol.size() < nnz + cols) {
            s.rowCol.resize(std::max(nnz + cols, 2 * s.rowCol.size()));
            s.rowVal.resize(s.rowCol.size());
        }
        std::uint32_t *col = s.rowCol.data() + nnz;
        float *val = s.rowVal.data() + nnz;
#if AUTOCAT_MAT_X86
        if (useAvx2()) {
            nnz += scanRowAvx2(x.rowPtr(r), cols, col, val);
            continue;
        }
#endif
        nnz += scanRowPortable(x.rowPtr(r), 0, cols, col, val);
    }
    s.rowStart[rows] = static_cast<std::uint32_t>(nnz);
    s.rowCol.resize(nnz);
    s.rowVal.resize(nnz);

    // Column view by counting sort: colStart[c + 1] counts column c,
    // prefix sums make colStart[c] its first slot, filling advances it
    // to the next column's start, and one shift puts it back.
    s.colStart.assign(cols + 1, 0);
    for (std::size_t e = 0; e < nnz; ++e)
        ++s.colStart[s.rowCol[e] + 1];
    for (std::size_t c = 0; c < cols; ++c)
        s.colStart[c + 1] += s.colStart[c];
    s.colRow.resize(nnz);
    s.colVal.resize(nnz);
    for (std::size_t r = 0; r < rows; ++r) {
        for (std::uint32_t e = s.rowStart[r]; e < s.rowStart[r + 1]; ++e) {
            const std::uint32_t slot = s.colStart[s.rowCol[e]]++;
            s.colRow[slot] = static_cast<std::uint32_t>(r);
            s.colVal[slot] = s.rowVal[e];
        }
    }
    for (std::size_t c = cols; c > 0; --c)
        s.colStart[c] = s.colStart[c - 1];
    s.colStart[0] = 0;
}

void
sparseLinearForwardInto(Matrix &y, const SparseRows &x, const Matrix &w,
                        const std::vector<float> &bias, bool relu)
{
    if (!useAvx2())
        return scalar::sparseLinearForwardInto(y, x, w, bias, relu);
#if AUTOCAT_MAT_X86
    assert(x.cols == w.cols());
    assert(bias.size() == w.rows());
    assert(&y != &w);
    y.resizeUninit(x.rows, w.rows());
    sparseDotGemmAvx2(y.data(), x, w.data(), w.rows(), bias.data(), relu);
#endif
}

void
sparseMatmulTransAInto(Matrix &c, const Matrix &a, const SparseRows &b)
{
    if (!useAvx2())
        return scalar::sparseMatmulTransAInto(c, a, b);
#if AUTOCAT_MAT_X86
    assert(a.rows() == b.rows);
    assert(&c != &a);
    c.resizeUninit(a.cols(), b.cols);
    sparseMatmulTransAAvx2(c.data(), a.data(), a.cols(), b);
#endif
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    Matrix c;
    matmulInto(c, a, b);
    return c;
}

void
softmaxEntropyRowsInto(std::vector<double> &probs,
                       std::vector<double> &entropies,
                       const Matrix &logits)
{
    const std::size_t rows = logits.rows();
    const std::size_t cols = logits.cols();
    assert(cols >= 1);
    probs.resize(rows * cols);
    entropies.resize(rows);

    for (std::size_t r = 0; r < rows; ++r) {
        const float *in = logits.rowPtr(r);
        double *p = probs.data() + r * cols;

        // Identical per-row math (and order) to
        // ActorCritic::softmaxRow: sequential max, sequential exp-sum,
        // then normalization — bitwise-equal results, zero allocations.
        double maxv = -1e30;
        for (std::size_t c = 0; c < cols; ++c)
            maxv = std::max(maxv, static_cast<double>(in[c]));
        double sum = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            p[c] = std::exp(static_cast<double>(in[c]) - maxv);
            sum += p[c];
        }
        double ent = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            p[c] /= sum;
            if (p[c] > 1e-12)
                ent -= p[c] * std::log(p[c]);
        }
        entropies[r] = ent;
    }
}

void
softmaxEntropyRowsMaskedInto(std::vector<double> &probs,
                             std::vector<double> &entropies,
                             const Matrix &logits,
                             const std::uint8_t *masks)
{
    assert(masks != nullptr);
    const std::size_t rows = logits.rows();
    const std::size_t cols = logits.cols();
    assert(cols >= 1);
    probs.resize(rows * cols);
    entropies.resize(rows);

    for (std::size_t r = 0; r < rows; ++r) {
        const float *in = logits.rowPtr(r);
        const std::uint8_t *m = masks + r * cols;
        double *p = probs.data() + r * cols;

        // Same sequential max / exp-sum / normalize order as the
        // unmasked kernel, restricted to the valid support; an all-1
        // mask row reproduces the unmasked arithmetic bit for bit.
        // The max over the valid entries keeps every exp argument
        // <= max(0, in[c] + 1e30), so nothing overflows.
        double maxv = -1e30;
        std::size_t valid = 0;
        for (std::size_t c = 0; c < cols; ++c) {
            if (m[c]) {
                maxv = std::max(maxv, static_cast<double>(in[c]));
                ++valid;
            }
        }
        if (valid == 0) {
            throw std::domain_error(
                "softmaxEntropyRowsMaskedInto: row " +
                std::to_string(r) + " masks out every action");
        }
        double sum = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            p[c] = m[c] ? std::exp(static_cast<double>(in[c]) - maxv)
                        : 0.0;
            sum += p[c];
        }
        double ent = 0.0;
        for (std::size_t c = 0; c < cols; ++c) {
            p[c] /= sum;
            // Masked entries are exactly 0 / sum == 0.0 here, so they
            // fail this guard and never reach a 0 * log(0).
            if (p[c] > 1e-12)
                ent -= p[c] * std::log(p[c]);
        }
        entropies[r] = ent;
    }
}

void
addRowVector(Matrix &m, const std::vector<float> &bias)
{
    assert(bias.size() == m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        float *row = m.rowPtr(r);
        for (std::size_t c = 0; c < m.cols(); ++c)
            row[c] += bias[c];
    }
}

std::vector<float>
colSum(const Matrix &m)
{
    std::vector<float> out(m.cols(), 0.0f);
    for (std::size_t r = 0; r < m.rows(); ++r) {
        const float *row = m.rowPtr(r);
        for (std::size_t c = 0; c < m.cols(); ++c)
            out[c] += row[c];
    }
    return out;
}

} // namespace autocat
