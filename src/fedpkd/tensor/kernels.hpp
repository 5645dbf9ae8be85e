#pragma once

#include <cstddef>

namespace fedpkd::tensor::kernels {

/// Raw pointer-level compute kernels behind the Tensor ops in ops.hpp.
///
/// Two implementations exist for every GEMM variant: a register-blocked,
/// cache-tiled one (the production kernel) and the original single-pass
/// naive loop (retained as the bitwise reference for tests and as the
/// "pre-optimization" baseline in bench/micro_tensor).
///
/// Determinism contract (see DESIGN.md §8): for every output element
/// C[i][j], the floating-point accumulation order over the inner dimension
/// kk is ascending, and the zero-skip rule is identical in both
/// implementations. matmul, matmul_bias, matmul_transpose_a and its
/// accumulate form skip A elements equal to ±0.0f; matmul_transpose_b skips
/// nothing, so 0 * Inf and 0 * NaN give NaN in both. Blocking and packing
/// therefore only regroup *which* elements are in flight, never the
/// per-element operation sequence, so blocked == naive bitwise, at any tile
/// size and — because each output row is computed independently — at any
/// parallel_for chunking.
///
/// All `*_rows` kernels compute output rows [row_begin, row_end) only, so
/// callers can split work across threads by row range.

/// C[m,n] = A[m,k] x B[k,n]; overwrites C rows.
void matmul_rows(const float* a, const float* b, float* c, std::size_t k,
                 std::size_t n, std::size_t row_begin, std::size_t row_end);
void matmul_rows_naive(const float* a, const float* b, float* c, std::size_t k,
                       std::size_t n, std::size_t row_begin,
                       std::size_t row_end);

/// C[m,n] = A[m,k] x B[k,n] + bias[n] broadcast over rows (fused Linear
/// forward). The bias add happens once per element after the full kk sum,
/// exactly like the separate add_row_vector pass it replaces.
void matmul_bias_rows(const float* a, const float* b, const float* bias,
                      float* c, std::size_t k, std::size_t n,
                      std::size_t row_begin, std::size_t row_end);

/// C[m,n] = A^T x B for A stored [k,m], B [k,n]; overwrites C rows.
void matmul_ta_rows(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t m, std::size_t n, std::size_t row_begin,
                    std::size_t row_end);
void matmul_ta_rows_naive(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t m, std::size_t n,
                          std::size_t row_begin, std::size_t row_end);

/// C[m,n] += A^T x B (fused weight-gradient accumulation). Each element adds
/// its fully-reduced kk sum to C once, exactly like the temporary-then-
/// add_inplace sequence it replaces.
void matmul_ta_acc_rows(const float* a, const float* b, float* c,
                        std::size_t k, std::size_t m, std::size_t n,
                        std::size_t row_begin, std::size_t row_end);

/// C[m,n] = A x B^T for A [m,k], B stored [n,k]; overwrites C rows.
void matmul_tb_rows(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t n, std::size_t row_begin, std::size_t row_end);
void matmul_tb_rows_naive(const float* a, const float* b, float* c,
                          std::size_t k, std::size_t n, std::size_t row_begin,
                          std::size_t row_end);

/// Per-step constants of one Adam update; bc1/bc2 are the bias corrections
/// 1 - beta1^t and 1 - beta2^t.
struct AdamCoeffs {
  float lr, beta1, beta2, eps, weight_decay, bc1, bc2;
};

/// One Adam update over n weights (nn::Adam::step, one call per parameter):
///   g = grad + wd*w;  m = b1*m + (1-b1)*g;  v = b2*v + ((1-b2)*g)*g;
///   w = w - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
/// With AVX eight weights go through each vmulps/vaddps/vdivps/vsqrtps, all
/// correctly rounded like their scalar twins and never contracted to FMA, so
/// the result is bitwise the scalar loop's; a scalar loop does the n % 8 tail.
void adam_update(float* w, const float* grad, float* m, float* v,
                 std::size_t n, const AdamCoeffs& s);

/// out[n,m] = A[m,n]^T, tiled so both sides stream through cache lines.
void transpose_blocked(const float* a, float* out, std::size_t m,
                       std::size_t n);
void transpose_naive(const float* a, float* out, std::size_t m, std::size_t n);

/// Row-wise stable softmax of logits[m,n] into out[m,n] (aliasing
/// out == logits is allowed). The temperature divide is hoisted: each logit
/// is divided once and the scaled value is reused by the max and exp passes,
/// which is bitwise identical to dividing in both passes.
void softmax_rows(const float* logits, float* out, std::size_t m,
                  std::size_t n, float temperature);

/// Row-wise stable log-softmax, same layout and aliasing rules as
/// softmax_rows.
void log_softmax_rows(const float* logits, float* out, std::size_t m,
                      std::size_t n, float temperature);

}  // namespace fedpkd::tensor::kernels
