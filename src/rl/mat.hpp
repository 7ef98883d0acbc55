/**
 * @file
 * Minimal dense matrix used by the neural-network substrate.
 *
 * Row-major float storage with exactly the operations PPO needs:
 * matmul (plain and A-transposed), a fused affine map for the forward,
 * their sparse-input variants, elementwise ops, and row/col
 * reductions. Deliberately not a general linear-algebra library.
 *
 * The matmul entry points dispatch at runtime between a blocked,
 * register-tiled AVX2+FMA kernel and the portable scalar kernels in
 * namespace scalar (see matmulBackend()). Every kernel has one
 * canonical per-element accumulation order, which the scalar kernel
 * computes element by element (mat.cpp). So:
 *
 *  - **Determinism**: both backends give the same bits, and results
 *    are a pure function of the operands — no threading, no
 *    runtime-dependent blocking. A report does not depend on which
 *    backend, or which host, rendered it.
 *  - **Row purity** (linearForwardInto): each output row's
 *    accumulation order depends only on that row of x and on w —
 *    never on the number of other rows in the batch. Forwarding a
 *    batch in two halves is therefore bitwise identical to forwarding
 *    it whole, so a stream's actions do not depend on how many other
 *    streams share its batch.
 *
 * tests/test_mat_kernels.cpp compares the dispatching kernels with the
 * scalar ones by memcmp. Set AUTOCAT_MAT_PORTABLE=1 in the environment
 * (before first use) to force the portable backend, e.g. when
 * A/B-measuring the SIMD path.
 */

#ifndef AUTOCAT_RL_MAT_HPP
#define AUTOCAT_RL_MAT_HPP

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace autocat {

/** Row-major dense float matrix. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols zero matrix. */
    Matrix(std::size_t rows, std::size_t cols)
        : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
    {
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    float &operator()(std::size_t r, std::size_t c)
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float operator()(std::size_t r, std::size_t c) const
    {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    float *rowPtr(std::size_t r) { return data_.data() + r * cols_; }
    const float *rowPtr(std::size_t r) const
    {
        return data_.data() + r * cols_;
    }

    /** Set every element to zero. */
    void zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

    /** Resize (contents become zero). */
    void
    resize(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, 0.0f);
    }

    /**
     * Resize without initializing: contents are unspecified (stale
     * values when shrinking/reusing, zeros for newly grown storage).
     * For destination matrices of the *Into kernels, which overwrite
     * every element; a same-size call is free, which makes reusable
     * workspaces cheap.
     */
    void
    resizeUninit(std::size_t rows, std::size_t cols)
    {
        rows_ = rows;
        cols_ = cols;
        data_.resize(rows * cols);
    }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<float> data_;
};

/**
 * Name of the matmul backend selected at startup: "avx2+fma" or
 * "portable". Useful in logs and for verifying a forced fallback.
 */
const char *matmulBackend();

/**
 * True when the AVX2+FMA kernels are selected: the CPU has both and
 * AUTOCAT_MAT_PORTABLE=1 was not set before first use. Decided once per
 * process; Adam::step (rl/adam.cpp) dispatches on it too.
 */
bool useAvx2();

/*
 * Destination-passing matmuls. Shared pre/postconditions:
 *
 *  Pre:  @p c must not alias @p a or @p b (asserted); operand shapes
 *        must agree as documented per function (asserted). Operands
 *        need no particular alignment — kernels use unaligned loads.
 *  Post: @p c is resized to the product shape and every element is
 *        overwritten (no accumulate-into semantics).
 */

/** C = A * B. A: m x k, B: k x n. */
void matmulInto(Matrix &c, const Matrix &a, const Matrix &b);

/** C = A^T * B. A: k x m, B: k x n. */
void matmulTransAInto(Matrix &c, const Matrix &a, const Matrix &b);

/**
 * Fused inference map y = x * w^T + bias, optionally ReLU-clamped —
 * one pass, no intermediate logits/bias/activation temporaries.
 *
 *  Pre:  x: B x in, w: out x in, bias.size() == out; @p y must alias
 *        neither @p x nor @p w (asserted).
 *  Post: y is B x out, fully overwritten. Row-pure (see the file
 *        comment).
 */
void linearForwardInto(Matrix &y, const Matrix &x, const Matrix &w,
                       const std::vector<float> &bias, bool relu);

/**
 * The nonzeros of a dense matrix, indexed by row (CSR) and by column
 * (CSC). A -0.0f entry counts as zero, a NaN as nonzero. Storage grows
 * with the nonzero count, not with rows x cols, and is reused across
 * sparseRowsInto() calls.
 */
struct SparseRows
{
    std::size_t rows = 0;
    std::size_t cols = 0;
    /** Row r's nonzeros are [rowStart[r], rowStart[r + 1]) of rowCol /
     *  rowVal, in ascending column order. */
    std::vector<std::uint32_t> rowStart;
    std::vector<std::uint32_t> rowCol;
    std::vector<float> rowVal;
    /** Column c's nonzeros are [colStart[c], colStart[c + 1]) of
     *  colRow / colVal, in ascending row order. */
    std::vector<std::uint32_t> colStart;
    std::vector<std::uint32_t> colRow;
    std::vector<float> colVal;

    std::size_t nnz() const { return rowCol.size(); }
};

/** Index the nonzeros of @p x into @p s (one pass over x). */
void sparseRowsInto(SparseRows &s, const Matrix &x);

/*
 * Sparse-input variants of linearForwardInto and matmulTransAInto for
 * a layer whose input is mostly zeros (the observation). Each output
 * is bit for bit the dense kernel's on the same matrix, for finite
 * operands: a skipped term would add fma(0, w, acc) == acc, since every
 * accumulator starts at +0 and never becomes -0 (a product that
 * underflows to -0 is the one way it could). The nonzero terms keep
 * the dense kernel's order.
 */

/**
 * linearForwardInto(y, x, w, bias, relu) reading only x's nonzeros.
 *
 *  Pre:  x.cols == w.cols(), bias.size() == w.rows().
 *  Post: y is x.rows x w.rows(), fully overwritten, bitwise equal to
 *        the dense kernel's result on the dense x.
 */
void sparseLinearForwardInto(Matrix &y, const SparseRows &x,
                             const Matrix &w,
                             const std::vector<float> &bias, bool relu);

/**
 * C = A^T * B for a sparse B: matmulTransAInto(c, a, dense b) reading
 * only b's nonzeros, column by column. A: k x m, B: k x n.
 *
 *  Pre:  a.rows() == b.rows; @p c must not alias @p a.
 *  Post: c is m x n, fully overwritten, bitwise equal to the dense
 *        kernel's result.
 */
void sparseMatmulTransAInto(Matrix &c, const Matrix &a,
                            const SparseRows &b);

/** C = A * B into a fresh matrix (see matmulInto). */
Matrix matmul(const Matrix &a, const Matrix &b);

/**
 * The portable backend: the kernels the entry points above run when
 * useAvx2() is false, with the same pre/postconditions. Each computes
 * every output in its canonical order, one element at a time, so it is
 * also the oracle the AVX2 kernels are held to bit for bit.
 */
namespace scalar {
void matmulInto(Matrix &c, const Matrix &a, const Matrix &b);
void matmulTransAInto(Matrix &c, const Matrix &a, const Matrix &b);
void linearForwardInto(Matrix &y, const Matrix &x, const Matrix &w,
                       const std::vector<float> &bias, bool relu);
void sparseLinearForwardInto(Matrix &y, const SparseRows &x,
                             const Matrix &w,
                             const std::vector<float> &bias, bool relu);
void sparseMatmulTransAInto(Matrix &c, const Matrix &a,
                            const SparseRows &b);
} // namespace scalar

/**
 * Fused row-wise softmax + entropy over a logits matrix: for each row
 * r, probs[r * cols + c] receives softmax(row r)[c] (double precision,
 * max-subtracted) and entropies[r] receives -sum p log p, in one pass
 * over reusable flat buffers — no per-row allocations, no second
 * traversal. The per-row arithmetic and accumulation order are exactly
 * those of ActorCritic::softmaxRow()/entropy(), so results are bitwise
 * identical to the per-row helpers; this is the PPO minibatch update's
 * batch kernel (rl/ppo.cpp).
 *
 *  Pre:  logits is B x A with A >= 1.
 *  Post: probs.size() == B * A, entropies.size() == B, fully
 *        overwritten.
 */
void softmaxEntropyRowsInto(std::vector<double> &probs,
                            std::vector<double> &entropies,
                            const Matrix &logits);

/**
 * Masked variant of softmaxEntropyRowsInto: entries whose mask byte is
 * 0 are treated as logit -inf — they receive probability exactly 0.0
 * and contribute nothing to the max, the exp-sum, or the entropy, so
 * the distribution and its entropy live on the valid support only.
 * NaN-free by construction: the max is taken over the valid entries
 * (every exp argument is <= 0, so nothing overflows) and masked
 * entries never enter a 0 * log(0).
 *
 *  Pre:  logits is B x A with A >= 1; @p masks is row-major B x A
 *        (1 = valid). Must not be null — callers with no mask use the
 *        unmasked kernel, whose output this matches bitwise on all-1
 *        masks.
 *  Post: probs.size() == B * A, entropies.size() == B, fully
 *        overwritten.
 *
 * @throws std::domain_error when a row masks out every action — a
 *         rollout buffer fed from such a row would train on NaN, so an
 *         all-invalid row fails loudly at the kernel boundary.
 */
void softmaxEntropyRowsMaskedInto(std::vector<double> &probs,
                                  std::vector<double> &entropies,
                                  const Matrix &logits,
                                  const std::uint8_t *masks);

/** Add row vector @p bias (length cols) to every row of @p m in place. */
void addRowVector(Matrix &m, const std::vector<float> &bias);

/** Column sums of @p m (length cols). */
std::vector<float> colSum(const Matrix &m);

} // namespace autocat

#endif // AUTOCAT_RL_MAT_HPP
